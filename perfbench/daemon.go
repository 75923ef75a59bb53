package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/server"
	"ic2mpi/internal/trace"
)

// daemonClients is the closed-loop client count: each client waits for
// its job's result before submitting the next, over one connection.
const daemonClients = 2

// daemonSetupReps is how many daemons set-up starts; setup_s is the
// median.
const daemonSetupReps = 51

// tracedJobsPerClient is the traced run's fixed sequence length per
// client, a whole number of generator blocks so the exact counts
// (cells, cache-hit share) depend on the seed alone.
const tracedJobsPerClient = 10 * repeatBlock

// daemonOracle is the direct, in-process answer for one unique spec:
// experiments.RunSweep (or RunTraced) plus WriteReport, and for a trace
// job the trace JSONL. Only the SHA-256 of each answer is kept, so the
// oracles of a long run stay small.
type daemonOracle struct {
	resultSum, traceSum [sha256.Size]byte
	resultLen, traceLen int
	samples             int
	// Host timings of the oracle's layer calls.
	runStart, runEnd, encEnd, traceEnd time.Time
}

func computeOracle(j genJob) (*daemonOracle, error) {
	sc, err := scenario.Get(j.spec.Scenario)
	if err != nil {
		return nil, err
	}
	ax, err := experiments.ParseAxes(j.spec.Sweep)
	if err != nil {
		return nil, err
	}
	o := &daemonOracle{runStart: time.Now()}
	var rep *experiments.SweepReport
	var rec *trace.Recorder
	if j.spec.Trace {
		rec = &trace.Recorder{}
		rep, err = experiments.RunTraced(sc, ax, rec)
	} else {
		rep, err = experiments.RunSweep(sc, ax)
	}
	o.runEnd = time.Now()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := experiments.WriteReport(&buf, j.spec.Format, rep); err != nil {
		return nil, err
	}
	o.encEnd = time.Now()
	o.resultSum, o.resultLen = sha256.Sum256(buf.Bytes()), buf.Len()
	if rec != nil {
		var tb bytes.Buffer
		if err := trace.WriteJSONL(&tb, rec); err != nil {
			return nil, err
		}
		o.traceEnd = time.Now()
		o.traceSum, o.traceLen = sha256.Sum256(tb.Bytes()), tb.Len()
		o.samples = len(rec.Samples())
	}
	return o, nil
}

// daemonPlan is the generated job sequences, one per client, and the
// oracle of every unique spec in them.
type daemonPlan struct {
	seqs    [][]genJob
	oracles map[string]*daemonOracle
}

// buildPlan generates perClient jobs for every client and computes the
// oracle of every unique spec among them on two goroutines.
func buildPlan(seed int64, nodes map[string]int, perClient int) (*daemonPlan, error) {
	plan := &daemonPlan{seqs: make([][]genJob, daemonClients), oracles: map[string]*daemonOracle{}}
	var todo []genJob
	for c := range plan.seqs {
		g := newJobGen(seed, c, daemonClients, nodes)
		for i := 0; i < perClient; i++ {
			j, err := g.next()
			if err != nil {
				return nil, err
			}
			plan.seqs[c] = append(plan.seqs[c], j)
			if k := oracleKey(j); plan.oracles[k] == nil {
				plan.oracles[k] = &daemonOracle{}
				todo = append(todo, j)
			}
		}
	}
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(todo); i = int(next.Add(1)) - 1 {
				var o *daemonOracle
				if o, errs[i] = computeOracle(todo[i]); errs[i] == nil {
					*plan.oracles[oracleKey(todo[i])] = *o
				}
			}
		}()
	}
	wg.Wait()
	for i, j := range todo {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle for %s: %w", j.body, errs[i])
		}
	}
	return plan, nil
}

// daemon is one in-process server behind a loopback listener.
type daemon struct {
	srv   *server.Server
	ts    *httptest.Server
	conns atomic.Int64 // client connections accepted
}

// startDaemon is the daemon-mix set-up: server.New with the cache on and
// default workers, until the listener answers /readyz.
func startDaemon() (*daemon, error) {
	d := &daemon{srv: server.New(server.Config{})}
	d.ts = httptest.NewUnstartedServer(d.srv.Handler())
	d.ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			d.conns.Add(1)
		}
	}
	d.ts.Start()
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	if _, err := get(c, d.ts.URL+"/readyz"); err != nil {
		d.stop()
		return nil, err
	}
	d.conns.Store(0) // count only load-generator connections
	return d, nil
}

// stop closes the listener (waiting for in-flight requests) and drains
// the job workers.
func (d *daemon) stop() {
	d.ts.Close()
	d.srv.Close()
}

// jobOut is what one job's requests returned. marks are the host times
// at which the job was submitted, and the submit, stream, result and
// document requests ended.
type jobOut struct {
	state            string
	result, trace    []byte
	cells, cacheHits int
	queueNS, runNS   int64
	marks            [5]time.Time
}

// phase returns the host time of request i (0 submit, 1 stream,
// 2 result, 3 document).
func (o jobOut) phase(i int) time.Duration { return o.marks[i+1].Sub(o.marks[i]) }

// newLoadClient returns a client that holds at most one connection.
func newLoadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func get(c *http.Client, url string) ([]byte, error) {
	res, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, res.Status, body)
	}
	return body, nil
}

// runJob is one op: POST the spec, follow /stream to EOF, GET /result
// (and /trace for a trace job), GET the job document.
func runJob(c *http.Client, base string, j genJob) (jobOut, error) {
	var out jobOut
	out.marks[0] = time.Now()
	res, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return out, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return out, err
	}
	if res.StatusCode != http.StatusCreated {
		return out, fmt.Errorf("submit: %s: %s", res.Status, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return out, err
	}
	out.marks[1] = time.Now()
	jobURL := base + "/v1/jobs/" + sub.ID
	if _, err := get(c, jobURL+"/stream"); err != nil {
		return out, err
	}
	out.marks[2] = time.Now()
	if out.result, err = get(c, jobURL+"/result"); err != nil {
		return out, err
	}
	if j.spec.Trace {
		if out.trace, err = get(c, jobURL+"/trace"); err != nil {
			return out, err
		}
	}
	out.marks[3] = time.Now()
	docBytes, err := get(c, jobURL)
	if err != nil {
		return out, err
	}
	var doc struct {
		State     string `json:"state"`
		Cells     int    `json:"cells"`
		CacheHits int    `json:"cache_hits"`
		QueueNS   int64  `json:"queue_ns"`
		RunNS     int64  `json:"run_ns"`
	}
	if err := json.Unmarshal(docBytes, &doc); err != nil {
		return out, err
	}
	out.marks[4] = time.Now()
	out.state, out.cells, out.cacheHits = doc.State, doc.Cells, doc.CacheHits
	out.queueNS, out.runNS = doc.QueueNS, doc.RunNS
	return out, nil
}

// checkJob verifies one job against its oracle and the generator's
// cache expectation.
func checkJob(j genJob, o *daemonOracle, out jobOut) error {
	wantHits := 0
	if j.repeat {
		wantHits = j.cells
	}
	switch {
	case out.state != server.StateDone:
		return fmt.Errorf("job state %q, want done", out.state)
	case sha256.Sum256(out.result) != o.resultSum:
		return fmt.Errorf("/result bytes differ from direct RunSweep+WriteReport (%d vs %d bytes)", len(out.result), o.resultLen)
	case j.spec.Trace && sha256.Sum256(out.trace) != o.traceSum:
		return fmt.Errorf("/trace bytes differ from direct RunTraced+WriteJSONL (%d vs %d bytes)", len(out.trace), o.traceLen)
	case out.cells != j.cells:
		return fmt.Errorf("job has %d cells, generator expected %d", out.cells, j.cells)
	case out.cacheHits != wantHits:
		return fmt.Errorf("job served %d cells from cache, generator expected %d", out.cacheHits, wantHits)
	}
	return nil
}

// loadResult is what a closed-loop load phase measured.
type loadResult struct {
	t       tally
	durs    []time.Duration
	outs    []jobOut
	jobs    []genJob
	window  time.Duration
	updates int64
}

// add appends another load phase's ops and adds its window.
func (lr *loadResult) add(o loadResult) {
	lr.t.merge(o.t)
	lr.durs = append(lr.durs, o.durs...)
	lr.outs = append(lr.outs, o.outs...)
	lr.jobs = append(lr.jobs, o.jobs...)
	lr.window += o.window
	lr.updates += o.updates
}

// drive runs every client through the first perClient jobs of its
// sequence.
func drive(d *daemon, plan *daemonPlan, perClient int) loadResult {
	type clientRes struct {
		t    tally
		durs []time.Duration
		outs []jobOut
		jobs []genJob
		end  time.Time
	}
	res := make([]clientRes, daemonClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newLoadClient()
			defer cl.CloseIdleConnections()
			r := &res[c]
			for _, j := range plan.seqs[c][:perClient] {
				t0 := time.Now()
				out, err := runJob(cl, d.ts.URL, j)
				r.durs = append(r.durs, time.Since(t0))
				if err == nil {
					err = checkJob(j, plan.oracles[oracleKey(j)], out)
				}
				r.t.record(err)
				out.result, out.trace = nil, nil // checked; free them
				r.outs = append(r.outs, out)
				r.jobs = append(r.jobs, j)
			}
			r.end = time.Now()
		}(c)
	}
	wg.Wait()
	var lr loadResult
	var end time.Time
	for _, r := range res {
		lr.t.merge(r.t)
		lr.durs = append(lr.durs, r.durs...)
		lr.outs = append(lr.outs, r.outs...)
		lr.jobs = append(lr.jobs, r.jobs...)
		if r.end.After(end) {
			end = r.end
		}
	}
	for _, j := range lr.jobs {
		lr.updates += j.updates
	}
	lr.window = end.Sub(start)
	return lr
}

// roundJobsPerClient is the fixed sequence each client runs against one
// fresh daemon; daemon-mix runs such rounds until its time is up. The
// server keeps every job it has served, so a fixed round, not one daemon
// for the whole run, keeps max_rss_mb independent of run length and of
// how many jobs a faster daemon gets through. About two seconds of load
// on a 2-core host.
const roundJobsPerClient = 50 * repeatBlock

// runDaemon runs daemon-mix for secs seconds.
func runDaemon(seed int64, secs float64, traced bool, log io.Writer) (tally, map[string]metric, *tracer, error) {
	var t tally
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	setupDurs := make([]time.Duration, 0, daemonSetupReps)
	for i := 0; i < daemonSetupReps; i++ {
		runtime.GC()
		start := time.Now()
		d, err := startDaemon()
		if err != nil {
			return t, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupDurs = append(setupDurs, time.Since(start))
		d.stop()
	}

	nodes, err := catalogueNodes(tr)
	if err != nil {
		return t, nil, nil, err
	}
	plan, err := buildPlan(seed, nodes, roundJobsPerClient)
	if err != nil {
		return t, nil, nil, err
	}
	fmt.Fprintf(log, "# daemon-mix: rounds of %d jobs per client, %d unique specs\n", roundJobsPerClient, len(plan.oracles))

	// Warm-up on a throwaway daemon: connections, code paths, heap.
	warm, err := startDaemon()
	if err != nil {
		return t, nil, nil, err
	}
	wr := drive(warm, plan, repeatBlock)
	warm.stop()
	t.merge(wr.t)

	budget := secs
	if traced {
		budget = 0.5 * secs
	}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	mem := memSnapshot()
	var lr loadResult
	var rounds, conns int64
	for rounds == 0 || time.Now().Before(deadline) {
		d, err := startDaemon()
		if err != nil {
			return t, nil, nil, err
		}
		lr.add(drive(d, plan, roundJobsPerClient))
		conns = max(conns, d.conns.Load())
		d.stop()
		rounds++
	}
	allocMiB, gcs := mem.perOp(len(lr.durs))
	t.merge(lr.t)
	fmt.Fprintf(log, "# daemon-mix: %d jobs in %d rounds, %v of load, at most %d client connections per daemon\n", len(lr.durs), rounds, lr.window, conns)
	if !traced {
		return t, endToEnd(median(seconds(setupDurs)), lr.durs, lr.window, lr.updates, log), nil, nil
	}

	// Traced run: a fresh daemon, a fixed whole-block prefix of every
	// client's sequence, each request recorded as a span.
	d, err := startDaemon()
	if err != nil {
		return t, nil, nil, err
	}
	tl := drive(d, plan, tracedJobsPerClient)
	d.stop()
	t.merge(tl.t)
	m := daemonLayers(plan, tl, tr)
	m["runtime.alloc_mb_per_op"] = metric{allocMiB, "MiB"}
	m["runtime.gc_per_op"] = metric{gcs, "count"}
	m["bench.trace_overhead_ratio"] = metric{ratio(median(millis(tl.durs)), median(millis(lr.durs))), "ratio"}
	var graphS float64
	for _, s := range tr.spans {
		if s.Name == "graph.build" {
			graphS += time.Duration(s.End - s.Start).Seconds()
		}
	}
	m["graph.build_s"] = metric{graphS, "s"}
	return t, m, tr, nil
}

// daemonLayers derives the daemon-mix per-layer metrics from the traced
// sequence and the oracles of the specs it ran.
func daemonLayers(plan *daemonPlan, tl loadResult, tr *tracer) map[string]metric {
	var submit, stream, fetch, queue, run []float64
	var oracleS, encS, traceEncS []float64
	cells, hitJobs, samples, traceBytes := 0, 0, 0, 0
	seen := map[string]bool{}
	for i, j := range tl.jobs {
		out := tl.outs[i]
		op := tr.add("op", i, -1, out.marks[0], out.marks[0].Add(tl.durs[i]))
		for k, name := range []string{"server.submit", "server.stream", "server.result", "server.doc"} {
			tr.add(name, i, op, out.marks[k], out.marks[k+1])
		}
		submit = append(submit, float64(out.phase(0))/1e6)
		stream = append(stream, float64(out.phase(1))/1e6)
		fetch = append(fetch, float64(out.phase(2))/1e6)
		queue = append(queue, float64(out.queueNS)/1e6)
		run = append(run, float64(out.runNS)/1e6)
		cells += j.cells
		if out.cells > 0 && out.cacheHits == out.cells {
			hitJobs++
		}
		o := plan.oracles[oracleKey(j)]
		if j.spec.Trace {
			samples += o.samples
			traceBytes += o.traceLen
		}
		if k := oracleKey(j); !seen[k] {
			seen[k] = true
			tr.add("experiments.oracle", -1, -1, o.runStart, o.runEnd)
			tr.add("experiments.encode", -1, -1, o.runEnd, o.encEnd)
			if j.spec.Trace {
				tr.add("trace.encode", -1, -1, o.encEnd, o.traceEnd)
			}
			oracleS = append(oracleS, o.runEnd.Sub(o.runStart).Seconds())
			encS = append(encS, o.encEnd.Sub(o.runEnd).Seconds())
			if j.spec.Trace {
				traceEncS = append(traceEncS, o.traceEnd.Sub(o.encEnd).Seconds())
			}
		}
	}
	return map[string]metric{
		"experiments.cells":      {float64(cells), "count"},
		"experiments.oracle_s":   {median(oracleS), "s"},
		"experiments.encode_s":   {median(encS), "s"},
		"trace.samples":          {float64(samples), "count"},
		"trace.bytes":            {float64(traceBytes), "B"},
		"trace.encode_s":         {median(traceEncS), "s"},
		"server.submit_ms":       {median(submit), "ms"},
		"server.queue_ms":        {median(queue), "ms"},
		"server.run_ms":          {median(run), "ms"},
		"server.stream_ms":       {median(stream), "ms"},
		"server.result_ms":       {median(fetch), "ms"},
		"server.cache_hit_ratio": {ratio(float64(hitJobs), float64(len(tl.jobs))), "ratio"},
	}
}
