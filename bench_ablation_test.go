package ic2mpi_test

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// pair/group isolates one mechanism so `go test -bench=Ablation` shows its
// effect on the simulated execution (reported via the b.ReportMetric
// "virtual_s/op" series) as well as its host-side cost.

import (
	"testing"

	"ic2mpi"
	"ic2mpi/internal/balance"
	"ic2mpi/internal/graph"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/workload"
)

// ablationRun executes one configuration and reports the virtual elapsed
// time as a benchmark metric.
func ablationRun(b *testing.B, mutate func(*platform.Config)) {
	b.Helper()
	g, err := graph.PaperHexGrid(64)
	if err != nil {
		b.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(1).Partition(g, nil, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := platform.Config{
		Graph:            g,
		Procs:            8,
		InitialPartition: part,
		InitData:         workload.InitID,
		Node:             workload.Averaging(workload.UniformGrain(workload.FineGrain)),
		Iterations:       20,
		SkipFinalGather:  true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	var virtual float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := platform.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		virtual = res.Elapsed
	}
	b.ReportMetric(virtual, "virtual_s/op")
}

// Ablation 1: basic (Fig. 8) vs overlapped (Fig. 8a) communication. The
// thesis expects the overlap "could result in significant performance
// improvement ... possibly coarse grain size".
func BenchmarkAblationCommBasic(b *testing.B) {
	ablationRun(b, func(c *platform.Config) { c.Overlap = false })
}

func BenchmarkAblationCommOverlapped(b *testing.B) {
	ablationRun(b, func(c *platform.Config) { c.Overlap = true })
}

// Ablation 2: balancing period and migration rounds under the Fig. 23
// imbalance (thesis protocol vs the Section 7 multi-round extension).
func ablationDynamic(b *testing.B, every, rounds int, bal platform.Balancer) {
	ablationRun(b, func(c *platform.Config) {
		c.Node = workload.Averaging(workload.Fig23Schedule(64, workload.CoarseGrain, workload.CoarseGrain/100))
		c.Iterations = 25
		c.Balancer = bal
		c.BalanceEvery = every
		c.BalanceRounds = rounds
	})
}

func BenchmarkAblationLBStatic(b *testing.B) { ablationDynamic(b, 10, 1, nil) }

func BenchmarkAblationLBThesisProtocol(b *testing.B) {
	ablationDynamic(b, 10, 1, &balance.CentralizedHeuristic{})
}

func BenchmarkAblationLBMultiRound(b *testing.B) {
	ablationDynamic(b, 3, 4, &balance.CentralizedHeuristic{})
}

func BenchmarkAblationLBDiffusion(b *testing.B) {
	ablationDynamic(b, 3, 4, &balance.Diffusion{})
}

func BenchmarkAblationLBStrictRule(b *testing.B) {
	ablationDynamic(b, 3, 4, &balance.CentralizedHeuristic{StrictAllNeighbors: true})
}

// Ablation 3: partitioner choice for the same workload.
func ablationPartitioner(b *testing.B, pt ic2mpi.Partitioner, net *ic2mpi.Network) {
	b.Helper()
	g, err := graph.PaperHexGrid(64)
	if err != nil {
		b.Fatal(err)
	}
	part, err := pt.Partition(g, net, 8)
	if err != nil {
		b.Fatal(err)
	}
	ablationRun(b, func(c *platform.Config) { c.InitialPartition = part })
}

func BenchmarkAblationPartitionMetis(b *testing.B) {
	ablationPartitioner(b, ic2mpi.NewMetis(1), nil)
}

func BenchmarkAblationPartitionPaGrid(b *testing.B) {
	net, err := ic2mpi.Hypercube(8)
	if err != nil {
		b.Fatal(err)
	}
	ablationPartitioner(b, ic2mpi.NewPaGrid(0.45, 1), net)
}

func BenchmarkAblationPartitionRoundRobin(b *testing.B) {
	g, err := graph.PaperHexGrid(64)
	if err != nil {
		b.Fatal(err)
	}
	part := make([]int, g.NumVertices())
	for v := range part {
		part[v] = v % 8
	}
	ablationRun(b, func(c *platform.Config) { c.InitialPartition = part })
}

// Ablation 4: the chained hash table vs direct operations — host-side cost
// of the faithful index structure.
func BenchmarkAblationHashTable(b *testing.B) {
	h, err := platform.NewHashTable(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := graph.NodeID(i % 1024)
		if h.Lookup(id) == nil {
			if err := h.Insert(platform.NewHashEntry(id, platform.IntData(int64(id)))); err != nil {
				b.Fatal(err)
			}
		}
	}
}
