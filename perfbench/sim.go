package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"ic2mpi/internal/balance"
	"ic2mpi/internal/checkpoint"
	"ic2mpi/internal/fault"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/partition"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/trace"
)

// simSpec fixes the sizes of one simulation workload. Every workload runs
// heat (scenario.HeatNode) on a hex mesh with seeded initial
// temperatures.
type simSpec struct {
	name        string
	rows, cols  int
	procs       int
	iters       int
	partitioner string // "metis" or "rcb"
	network     string
	// chaos wraps the machine in the seeded chaos fault schedule.
	chaos   bool
	kernel  mpi.Kernel
	overlap bool
	// predictive enables the predictive balancer.
	predictive                  bool
	balanceEvery, balanceRounds int
	// checkpointEvery > 0 makes the op checkpoint, decode the middle
	// snapshot and resume from it (balance-churn).
	checkpointEvery int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
}

var (
	// mesh-coarse runs 60 iterations per op so that the per-op rank
	// start-up, teardown and final gather stay a small share of it: with
	// 20 they are a third of the op, and its host time then swings about
	// twice as far as the other workloads' when another process takes
	// CPU time from one of the cores.
	meshCoarse = simSpec{
		name: "mesh-coarse", rows: 128, cols: 128, procs: 16, iters: 60,
		partitioner: "metis", network: netmodel.NameHypercube, kernel: mpi.KernelGoroutine,
		setupReps: 7,
	}
	rankSwarm = simSpec{
		name: "rank-swarm", rows: 64, cols: 64, procs: 2048, iters: 10,
		partitioner: "rcb", network: netmodel.NameHypercube, kernel: mpi.KernelParallelEvent,
		setupReps: 25,
	}
	balanceChurn = simSpec{
		name: "balance-churn", rows: 64, cols: 64, procs: 32, iters: 40,
		partitioner: "metis", network: netmodel.NameHypercube, chaos: true,
		kernel: mpi.KernelGoroutine, overlap: true,
		predictive: true, balanceEvery: 2, balanceRounds: 4,
		checkpointEvery: 10, setupReps: 9,
	}
)

// simInputs are the generated inputs: initial temperatures and the
// perturbation seed. The program receives only these.
type simInputs struct {
	temps       []scenario.Temp
	perturbSeed int64
}

func genSimInputs(spec simSpec, seed int64) simInputs {
	rng := rand.New(rand.NewSource(seed))
	in := simInputs{temps: make([]scenario.Temp, spec.rows*spec.cols)}
	for i := range in.temps {
		in.temps[i] = scenario.Temp(rng.Int63n(2_000_001) - 1_000_000) // ±1.0 in micro-units
	}
	in.perturbSeed = 1 + rng.Int63n(1<<30)
	return in
}

// world is what set-up builds: graph, partition, machine and the
// untraced platform configuration.
type world struct {
	spec    simSpec
	cfg     platform.Config
	edgeCut int
	nodes   int
}

// buildWorld is the timed set-up: graph generation, partitioning, and
// netmodel/fault/config construction. With a tracer, each layer call is
// a span.
func buildWorld(spec simSpec, in simInputs, tr *tracer) (*world, error) {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)

	s := tr.begin("graph.build", -1, root)
	g, err := graph.HexGrid(spec.rows, spec.cols)
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("partition", -1, root)
	var part []int
	switch spec.partitioner {
	case "metis":
		part, err = (&partition.Multilevel{Seed: 1}).Partition(g, nil, spec.procs)
	case "rcb":
		part, err = partition.RCB{}.Partition(g, nil, spec.procs)
	default:
		err = fmt.Errorf("unknown partitioner %q", spec.partitioner)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}

	s = tr.begin("netmodel.build", -1, root)
	net, err := netmodel.New(spec.network, spec.procs)
	if err == nil && spec.chaos {
		var sched *fault.Schedule
		if sched, err = fault.Parse(fmt.Sprintf("%s@%d", fault.NameChaos, in.perturbSeed)); err == nil {
			net, err = fault.Wrap(net, sched, spec.procs, spec.iters)
		}
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}

	var bal platform.Balancer
	if spec.predictive {
		bal = &balance.Predictive{}
	}
	n := g.NumVertices()
	temps := in.temps
	w := &world{
		spec:  spec,
		nodes: n,
		cfg: platform.Config{
			Graph:            g,
			Procs:            spec.procs,
			InitialPartition: part,
			InitData:         func(id graph.NodeID) platform.NodeData { return temps[id] },
			Node:             scenario.HeatNode(n),
			Iterations:       spec.iters,
			Overlap:          spec.overlap,
			ReuseBuffers:     true,
			Balancer:         bal,
			BalanceEvery:     spec.balanceEvery,
			BalanceRounds:    spec.balanceRounds,
			Network:          net,
			Kernel:           spec.kernel,
		},
	}
	if w.edgeCut, err = g.EdgeCut(part); err != nil {
		return nil, err
	}
	return w, nil
}

// simOut is what one op produces.
type simOut struct {
	res *platform.Result
	// balance-churn only: the uninterrupted run's trace, the encoded
	// snapshots, and the run resumed from the middle snapshot.
	traceJSONL   []byte
	traceSamples int
	snaps        [][]byte
	resumeIter   int
	resumed      *platform.Result
	resumedTrace []byte
}

// updates is the node updates one op performs.
func (w *world) updates(out simOut) int64 {
	u := int64(w.nodes) * int64(w.spec.iters)
	if out.resumed != nil {
		u += int64(w.nodes) * int64(w.spec.iters-out.resumeIter)
	}
	return u
}

// opProbe carries the traced run's per-op instrumentation; nil for
// untraced ops.
type opProbe struct {
	tr       *tracer
	op       int
	node     callAgg
	plan     planAgg
	runWall  time.Duration
	runCPU   time.Duration
	encode   time.Duration // checkpoint sink; guarded by its mutex during the run
	decode   time.Duration
	resume   time.Duration
	traceEnc time.Duration
}

// runOp executes one op: a platform.Run with the final gather on and,
// for balance-churn, trace encode, checkpoint decode of the middle
// snapshot and the resumed run.
func (w *world) runOp(p *opProbe) (simOut, error) {
	var out simOut
	cfg := w.cfg
	var tr *tracer
	op, opSpan := -1, -1
	if p != nil {
		tr, op = p.tr, p.op
		opSpan = tr.begin("op", op, -1)
		defer tr.end(opSpan)
		cfg.Node = tracedNode(cfg.Node, &p.node)
		cfg.Balancer = wrapBalancer(cfg.Balancer, &p.plan)
	}
	var rec *trace.Recorder
	var mu sync.Mutex
	if w.spec.checkpointEvery > 0 {
		rec = &trace.Recorder{}
		cfg.Trace = rec
		cfg.CheckpointEvery = w.spec.checkpointEvery
		meta := checkpoint.Meta{CellKey: "perfbench|" + w.spec.name}
		cfg.CheckpointSink = func(snap *platform.RunSnapshot) error {
			start := time.Now()
			b, err := checkpoint.Encode(meta, snap)
			d := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			out.snaps = append(out.snaps, b)
			if p != nil {
				p.encode += d
			}
			return err
		}
	}

	runSpan := tr.begin("platform.run", op, opSpan)
	cpu0 := cpuTime()
	res, err := platform.Run(cfg)
	if p != nil {
		p.runCPU = cpuTime() - cpu0
		p.runWall = tr.end(runSpan)
		calls, ns := p.node.totals()
		tr.aggregate("platform.node", op, runSpan, calls, ns)
		tr.aggregate("balance.plan", op, runSpan, p.plan.calls.Load(), p.plan.ns.Load())
		tr.aggregate("checkpoint.encode", op, runSpan, int64(len(out.snaps)), int64(p.encode))
	}
	if err != nil {
		return out, err
	}
	out.res = res
	if rec == nil {
		return out, nil
	}

	var buf bytes.Buffer
	s := tr.begin("trace.encode", op, opSpan)
	err = trace.WriteJSONL(&buf, rec)
	d := tr.end(s)
	if err != nil {
		return out, err
	}
	out.traceJSONL = buf.Bytes()
	out.traceSamples = len(rec.Samples())
	if len(out.snaps) == 0 {
		return out, fmt.Errorf("no checkpoint captured")
	}

	s = tr.begin("checkpoint.decode", op, opSpan)
	_, snap, err := checkpoint.Decode(out.snaps[len(out.snaps)/2])
	dec := tr.end(s)
	if err != nil {
		return out, err
	}
	out.resumeIter = snap.Iter

	rcfg := cfg
	rcfg.CheckpointEvery, rcfg.CheckpointSink = 0, nil
	rcfg.ResumeFrom = snap
	rrec := &trace.Recorder{}
	rcfg.Trace = rrec
	if p != nil {
		// Resumed node calls and plans must not count toward the
		// uninterrupted run's exact totals.
		rcfg.Node = tracedNode(w.cfg.Node, &callAgg{})
		rcfg.Balancer = wrapBalancer(w.cfg.Balancer, &planAgg{})
	}
	s = tr.begin("checkpoint.resume", op, opSpan)
	out.resumed, err = platform.Run(rcfg)
	res2 := tr.end(s)
	if err != nil {
		return out, err
	}
	var rbuf bytes.Buffer
	s = tr.begin("trace.encode", op, opSpan)
	err = trace.WriteJSONL(&rbuf, rrec)
	d2 := tr.end(s)
	if err != nil {
		return out, err
	}
	out.resumedTrace = rbuf.Bytes()
	if p != nil {
		p.traceEnc = d + d2
		p.decode = dec
		p.resume = res2
	}
	return out, nil
}

// simRef is the oracle every op of a sim workload is checked against:
// the sequential reference data, computed once per workload run, and the
// first op's outputs, which every later op must reproduce exactly.
type simRef struct {
	seq   []platform.NodeData
	first *simOut
}

// check verifies one op's outputs.
func (r *simRef) check(out simOut) error {
	if err := sameData(out.res.FinalData, r.seq); err != nil {
		return fmt.Errorf("final data vs sequential reference: %w", err)
	}
	if out.resumed != nil || out.snaps != nil {
		if !reflect.DeepEqual(out.resumed, out.res) {
			return fmt.Errorf("resumed run's result differs from the uninterrupted run's")
		}
		if !bytes.Equal(out.resumedTrace, out.traceJSONL) {
			return fmt.Errorf("resumed run's trace JSONL differs from the uninterrupted run's")
		}
	}
	if r.first == nil {
		r.first = &out
		return nil
	}
	f := r.first.res
	msgs, byts := statSums(out.res)
	fmsgs, fbyts := statSums(f)
	switch {
	case out.res.Elapsed != f.Elapsed:
		return fmt.Errorf("virtual elapsed %v, first op had %v", out.res.Elapsed, f.Elapsed)
	case out.res.Migrations != f.Migrations:
		return fmt.Errorf("migrations %d, first op had %d", out.res.Migrations, f.Migrations)
	case msgs != fmsgs || byts != fbyts:
		return fmt.Errorf("messages/bytes %d/%d, first op had %d/%d", msgs, byts, fmsgs, fbyts)
	case !reflect.DeepEqual(out.res, f):
		return fmt.Errorf("result differs from the first op's")
	case !bytes.Equal(out.traceJSONL, r.first.traceJSONL):
		return fmt.Errorf("trace JSONL differs from the first op's")
	}
	return nil
}

func sameData(got, want []platform.NodeData) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("node %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func statSums(r *platform.Result) (msgs, byts int) {
	for _, s := range r.Stats {
		msgs += s.MessagesSent
		byts += s.BytesSent
	}
	return msgs, byts
}

// runSim runs one simulation workload for secs seconds and returns its
// metrics: end-to-end with traced false, per-layer with traced true.
func runSim(spec simSpec, seed int64, secs float64, traced bool, log io.Writer) (tally, map[string]metric, *tracer, error) {
	var t tally
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	in := genSimInputs(spec, seed)
	setupDurs := make([]time.Duration, 0, spec.setupReps)
	var w *world
	for i := 0; i < spec.setupReps; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if w, err = buildWorld(spec, in, tr); err != nil {
			return t, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupDurs = append(setupDurs, time.Since(start))
	}
	seq, err := platform.RunSequential(w.cfg)
	if err != nil {
		return t, nil, nil, fmt.Errorf("sequential reference: %w", err)
	}
	ref := &simRef{seq: seq}

	// Warm-up op: fills caches, finishes lazy set-up, and fixes the
	// reference every later op must reproduce.
	out, err := w.runOp(nil)
	if err != nil {
		return t, nil, nil, err
	}
	t.record(ref.check(out))

	budget := secs
	if traced {
		budget = 0.4 * secs
	}
	mem := memSnapshot()
	var durs []time.Duration
	var updates int64
	err = repeat(budget, func() error {
		start := time.Now()
		out, err := w.runOp(nil)
		durs = append(durs, time.Since(start))
		if err != nil {
			return err
		}
		t.record(ref.check(out))
		updates += w.updates(out)
		return nil
	})
	if err != nil {
		return t, nil, nil, err
	}
	allocMiB, gcs := mem.perOp(len(durs))
	if !traced {
		return t, endToEnd(median(seconds(setupDurs)), durs, sum(durs), updates, log), nil, nil
	}

	lm, tracedP50, err := tracedSim(w, ref, tr, &t, 0.4*secs, 0.2*secs)
	if err != nil {
		return t, nil, nil, err
	}
	lm["runtime.alloc_mb_per_op"] = metric{allocMiB, "MiB"}
	lm["runtime.gc_per_op"] = metric{gcs, "count"}
	lm["bench.trace_overhead_ratio"] = metric{ratio(tracedP50, median(millis(durs))), "ratio"}
	fillSetupLayers(lm, tr, w)
	return t, lm, tr, nil
}

// repeat calls op at least three times and until budget seconds have
// passed.
func repeat(budget float64, op func() error) error {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// tracedSim runs traced ops for budget seconds, then the same world
// under each kernel and the sequential reference for kernelBudget
// seconds, and derives the per-layer metrics and the traced op p50.
func tracedSim(w *world, ref *simRef, tr *tracer, t *tally, budget, kernelBudget float64) (map[string]metric, float64, error) {
	var (
		wall, self, nodeS, planS, enc, dec, resume, traceEnc []float64
		opMS                                                 []float64
		last                                                 *opProbe
		lastOut                                              simOut
	)
	err := repeat(budget, func() error {
		p := &opProbe{tr: tr, op: len(opMS)}
		start := time.Now()
		out, err := w.runOp(p)
		opMS = append(opMS, float64(time.Since(start))/1e6)
		if err != nil {
			return err
		}
		t.record(ref.check(out))
		_, nodeNS := p.node.totals()
		child := time.Duration(nodeNS+p.plan.ns.Load()) + p.encode
		wall = append(wall, p.runWall.Seconds())
		self = append(self, (p.runCPU - child).Seconds())
		nodeS = append(nodeS, time.Duration(nodeNS).Seconds())
		planS = append(planS, time.Duration(p.plan.ns.Load()).Seconds())
		enc = append(enc, p.encode.Seconds())
		dec = append(dec, p.decode.Seconds())
		resume = append(resume, p.resume.Seconds())
		traceEnc = append(traceEnc, p.traceEnc.Seconds())
		last, lastOut = p, out
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// The same world under every kernel: outputs must equal the
	// reference op's, and host time is reported per kernel.
	kernelS := map[mpi.Kernel][]float64{}
	kernels := []mpi.Kernel{mpi.KernelGoroutine, mpi.KernelEvent, mpi.KernelParallelEvent}
	per := kernelBudget / float64(len(kernels)+1)
	for _, k := range kernels {
		cfg := w.cfg
		cfg.Kernel = k
		err := repeat(per, func() error {
			s := tr.begin("mpi.run."+k.String(), -1, -1)
			res, err := platform.Run(cfg)
			kernelS[k] = append(kernelS[k], tr.end(s).Seconds())
			if err != nil {
				return err
			}
			cerr := sameData(res.FinalData, ref.seq)
			if cerr == nil && !reflect.DeepEqual(res, ref.first.res) {
				cerr = fmt.Errorf("kernel %s: result differs from the reference op's", k)
			}
			t.record(cerr)
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	var seqS []float64
	err = repeat(per, func() error {
		s := tr.begin("platform.sequential", -1, -1)
		_, err := platform.RunSequential(w.cfg)
		seqS = append(seqS, tr.end(s).Seconds())
		return err
	})
	if err != nil {
		return nil, 0, err
	}

	calls, _ := last.node.totals()
	msgs, byts := statSums(lastOut.res)
	pairs := float64(last.plan.pairs.Load())
	var ckBytes int
	for _, b := range lastOut.snaps {
		ckBytes += len(b)
	}
	runS, selfS, seqMed := median(wall), median(self), median(seqS)
	m := map[string]metric{
		"platform.run_s":          {runS, "s"},
		"platform.self_s":         {selfS, "s"},
		"platform.node_calls":     {float64(calls), "count"},
		"platform.node_s":         {median(nodeS), "s"},
		"platform.sequential_s":   {seqMed, "s"},
		"platform.overhead_ratio": {ratio(runS, seqMed), "ratio"},
		"platform.migrations":     {float64(lastOut.res.Migrations), "count"},
		"mpi.messages":            {float64(msgs), "count"},
		"mpi.bytes":               {float64(byts), "B"},
		"mpi.msgs_per_host_s":     {ratio(float64(msgs), selfS), "1/s"},
		"balance.plan_calls":      {float64(last.plan.calls.Load()), "count"},
		"balance.plan_s":          {median(planS), "s"},
		"balance.pairs":           {pairs, "count"},
		"balance.useful_ratio":    {ratio(float64(lastOut.res.Migrations), pairs), "ratio"},
		"checkpoint.snapshots":    {float64(len(lastOut.snaps)), "count"},
		"checkpoint.bytes":        {float64(ckBytes), "B"},
		"checkpoint.encode_s":     {median(enc), "s"},
		"checkpoint.decode_s":     {median(dec), "s"},
		"checkpoint.resume_s":     {median(resume), "s"},
		"trace.samples":           {float64(lastOut.traceSamples), "count"},
		"trace.bytes":             {float64(len(lastOut.traceJSONL)), "B"},
		"trace.encode_s":          {median(traceEnc), "s"},
	}
	for _, k := range kernels {
		m["mpi.run_s."+k.String()] = metric{median(kernelS[k]), "s"}
	}
	return m, median(opMS), nil
}

// fillSetupLayers derives the set-up layers' metrics from the traced
// set-up spans (median over the set-up repetitions).
func fillSetupLayers(m map[string]metric, tr *tracer, w *world) {
	durs := map[string][]float64{}
	for _, s := range tr.spans {
		switch s.Name {
		case "graph.build", "partition", "netmodel.build":
			durs[s.Name] = append(durs[s.Name], time.Duration(s.End-s.Start).Seconds())
		}
	}
	m["graph.build_s"] = metric{median(durs["graph.build"]), "s"}
	m["partition.s"] = metric{median(durs["partition"]), "s"}
	m["partition.edge_cut"] = metric{float64(w.edgeCut), "count"}
	m["netmodel.build_s"] = metric{median(durs["netmodel.build"]), "s"}
}
