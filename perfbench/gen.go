package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/server"
)

// The daemon-mix job generator. Each client draws its own job sequence
// from the seed. Within every block of repeatBlock jobs exactly
// repeatsPerBlock repeat a spec this client submitted earlier, so the
// share of jobs served from the cell cache is fixed by the generator, not
// by how long the run lasts. A fresh job's cells are new to the daemon:
// every cacheable template carries a brownout fault schedule whose seed
// is unique across clients and jobs. Clients never share a spec, so with
// closed-loop clients a repeat always finds its cells cached.

const (
	repeatBlock     = 10
	repeatsPerBlock = 3
	// recentSpecs bounds how far back a repeat reaches, far inside the
	// daemon's default 4096-cell LRU.
	recentSpecs = 16
)

// repeatShare is the exact share of jobs that repeat an earlier spec.
const repeatShare = float64(repeatsPerBlock) / repeatBlock

// genJob is one generated job.
type genJob struct {
	spec   server.JobSpec
	body   []byte // the POST body
	repeat bool   // repeats an earlier spec: every cell is a cache hit
	cells  int
	// updates is the node updates the job's cells simulate.
	updates int64
}

// template builds a fresh job spec from the generator's random source
// and a brownout seed unique to this job.
type template struct {
	name  string
	build func(rng *rand.Rand, brownout string) server.JobSpec
}

// procsSubset draws a non-empty subset of choices, in order.
func procsSubset(rng *rand.Rand, choices ...int) string {
	for {
		s := ""
		for _, p := range choices {
			if rng.Intn(2) == 1 {
				if s != "" {
					s += ","
				}
				s += fmt.Sprint(p)
			}
		}
		if s != "" {
			return s
		}
	}
}

func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// catalogue is the daemon-mix job catalogue: multi-cell sweeps plus
// single-cell trace jobs (which bypass the cache).
var catalogue = []template{
	{"heat-basic", func(rng *rand.Rand, b string) server.JobSpec {
		return server.JobSpec{Scenario: "heat", Sweep: "procs=" + procsSubset(rng, 1, 2, 4, 8) + ";exchange=basic;iters=20;perturb=" + b}
	}},
	{"heat-overlap", func(rng *rand.Rand, b string) server.JobSpec {
		return server.JobSpec{Scenario: "heat", Sweep: "procs=" + procsSubset(rng, 2, 4, 8) + ";exchange=overlap;iters=20;perturb=" + b}
	}},
	{"life-metis", func(rng *rand.Rand, b string) server.JobSpec {
		return server.JobSpec{Scenario: "life", Sweep: "procs=" + procsSubset(rng, 2, 4, 8) + ";partitioner=metis;iters=20;perturb=" + b}
	}},
	{"life-rcb", func(rng *rand.Rand, b string) server.JobSpec {
		return server.JobSpec{Scenario: "life", Sweep: "procs=" + procsSubset(rng, 2, 4, 8) + ";partitioner=rcb;iters=20;perturb=" + b}
	}},
	{"sssp-kernels", func(rng *rand.Rand, b string) server.JobSpec {
		return server.JobSpec{Scenario: "sssp", Sweep: fmt.Sprintf("procs=%d;kernel=goroutine,event,pevent;perturb=%s", pick(rng, 2, 4, 8), b)}
	}},
	{"hex64-coarse-balancers", func(rng *rand.Rand, b string) server.JobSpec {
		return server.JobSpec{Scenario: "hex64-coarse", Sweep: "procs=" + procsSubset(rng, 4, 8) + ";balancer=diffusion,worksteal;perturb=" + b}
	}},
	{"pagerank-bsp-trace", func(rng *rand.Rand, _ string) server.JobSpec {
		return server.JobSpec{Scenario: "pagerank-bsp", Sweep: fmt.Sprintf("procs=%d;iters=20", pick(rng, 2, 4, 8)), Trace: true}
	}},
	{"heat-trace", func(rng *rand.Rand, b string) server.JobSpec {
		return server.JobSpec{Scenario: "heat", Sweep: fmt.Sprintf("procs=%d;iters=20;perturb=%s", pick(rng, 2, 4, 8), b), Trace: true}
	}},
}

// jobGen generates one client's job sequence.
type jobGen struct {
	rng             *rand.Rand
	client, clients int
	salt            int64
	n, fresh        int
	repeatAt        [repeatBlock]bool
	recent          []genJob
	nodes           map[string]int // scenario → graph size
}

// newJobGen returns client's generator; all clients of one run share
// seed and clients.
func newJobGen(seed int64, client, clients int, nodes map[string]int) *jobGen {
	return &jobGen{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client:  client,
		clients: clients,
		// The brownout seeds of one run start at a seed-derived offset, so
		// different seeds give different specs.
		salt:  1 + rand.New(rand.NewSource(seed)).Int63n(1<<40),
		nodes: nodes,
	}
}

// next returns the client's next job.
func (g *jobGen) next() (genJob, error) {
	pos := g.n % repeatBlock
	if pos == 0 {
		// Position 0 of a block is never a repeat.
		g.repeatAt = [repeatBlock]bool{}
		for _, p := range g.rng.Perm(repeatBlock - 1)[:repeatsPerBlock] {
			g.repeatAt[p+1] = true
		}
	}
	g.n++
	if g.repeatAt[pos] {
		// recent is never empty here: the first job is always cacheable.
		j := g.recent[g.rng.Intn(len(g.recent))]
		j.repeat = true
		return j, nil
	}
	for {
		t := catalogue[g.rng.Intn(len(catalogue))]
		token := int64(g.fresh*g.clients + g.client)
		g.fresh++
		spec := t.build(g.rng, fmt.Sprintf("brownout@%d", g.salt+token))
		spec.Format = pick(g.rng, experiments.Formats()...)
		if spec.Trace && len(g.recent) == 0 {
			continue // the first job must be cacheable, for later repeats
		}
		j, err := g.describe(spec)
		if err != nil {
			return genJob{}, fmt.Errorf("template %s: %w", t.name, err)
		}
		if !spec.Trace {
			g.recent = append(g.recent, j)
			if len(g.recent) > recentSpecs {
				g.recent = g.recent[1:]
			}
		}
		return j, nil
	}
}

// describe validates spec exactly as the daemon will and counts its
// cells and node updates.
func (g *jobGen) describe(spec server.JobSpec) (genJob, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return genJob{}, err
	}
	decoded, sc, err := server.DecodeJobSpec(body, 4096)
	if err != nil {
		return genJob{}, err
	}
	j := genJob{spec: spec, body: body}
	cells := decoded.Axes.Cells()
	if spec.Trace {
		p, err := decoded.Axes.Single()
		if err != nil {
			return genJob{}, err
		}
		cells = []scenario.Params{p}
	}
	j.cells = len(cells)
	sub := int64(max(sc.SubPhases, 1))
	for _, p := range cells {
		np, err := sc.Normalize(p)
		if err != nil {
			return genJob{}, err
		}
		j.updates += int64(g.nodes[sc.Name]) * int64(np.Iterations) * sub
	}
	return j, nil
}

// catalogueNodes builds each catalogue scenario's graph once and returns
// its size; graph building is the daemon-mix graph layer.
func catalogueNodes(tr *tracer) (map[string]int, error) {
	nodes := map[string]int{}
	for _, name := range []string{"heat", "life", "sssp", "hex64-coarse", "pagerank-bsp"} {
		sc, err := scenario.Get(name)
		if err != nil {
			return nil, err
		}
		s := tr.begin("graph.build", -1, -1)
		g, err := sc.Graph()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		nodes[name] = g.NumVertices()
	}
	return nodes, nil
}

// oracleKey identifies a unique spec for the oracle table.
func oracleKey(j genJob) string { return string(j.body) }
