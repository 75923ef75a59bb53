package ic2mpi_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 5). Each benchmark regenerates its
// experiment through the same code path as cmd/experiments, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The per-op wall time is the host cost
// of simulating the experiment; the experiment's own results are virtual
// times, printed by cmd/experiments and recorded in EXPERIMENTS.md.

import (
	"testing"

	"ic2mpi"
	"ic2mpi/internal/battlefield"
	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
	"ic2mpi/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// Tables 2-4: execution time on 32/64/96-node hexagonal grids (Metis, fine
// grain, iterations x processors sweep).
func BenchmarkTable2HexGrid32(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3HexGrid64(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4HexGrid96(b *testing.B) { benchExperiment(b, "table4") }

// Tables 5-6: execution time on 32/64-node random graphs.
func BenchmarkTable5Random32(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6Random64(b *testing.B) { benchExperiment(b, "table6") }

// Tables 7-11: the battlefield simulator under the five static
// partitioning schemes.
func BenchmarkTable7BattlefieldMetis(b *testing.B)    { benchExperiment(b, "table7") }
func BenchmarkTable8BattlefieldBF(b *testing.B)       { benchExperiment(b, "table8") }
func BenchmarkTable9BattlefieldRowBand(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10BattlefieldColBand(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11BattlefieldRect(b *testing.B)    { benchExperiment(b, "table11") }

// Figures 11-23.
func BenchmarkFig11SpeedupHex(b *testing.B)              { benchExperiment(b, "fig11") }
func BenchmarkFig12MetisVsPaGridHex(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13DynamicHex64(b *testing.B)            { benchExperiment(b, "fig13") }
func BenchmarkFig14DynamicHex32(b *testing.B)            { benchExperiment(b, "fig14") }
func BenchmarkFig15DynamicHex96(b *testing.B)            { benchExperiment(b, "fig15") }
func BenchmarkFig16SpeedupRandom(b *testing.B)           { benchExperiment(b, "fig16") }
func BenchmarkFig17MetisVsPaGridRandom(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkFig18DynamicRandom64(b *testing.B)         { benchExperiment(b, "fig18") }
func BenchmarkFig19DynamicRandom32(b *testing.B)         { benchExperiment(b, "fig19") }
func BenchmarkFig20BattlefieldPartitioners(b *testing.B) { benchExperiment(b, "fig20") }
func BenchmarkFig21OverheadsHex(b *testing.B)            { benchExperiment(b, "fig21") }
func BenchmarkFig22OverheadsRandom(b *testing.B)         { benchExperiment(b, "fig22") }
func BenchmarkFig23ImbalanceSchedule(b *testing.B)       { benchExperiment(b, "fig23") }

// Micro-benchmarks of the load-bearing substrates, for profiling the
// simulator itself rather than the simulated system.

// BenchmarkPlatformIteration measures one full platform iteration (64-node
// hex grid, 8 virtual processors) including partitioning amortized away.
func BenchmarkPlatformIteration(b *testing.B) {
	g, err := ic2mpi.HexGrid(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(1).Partition(g, nil, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ic2mpi.Config{
		Graph:            g,
		Procs:            8,
		InitialPartition: part,
		InitData:         workload.InitID,
		Node:             workload.Averaging(workload.UniformGrain(workload.FineGrain)),
		Iterations:       1,
		SkipFinalGather:  true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ic2mpi.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScenario measures one registered scenario end to end through the
// registry, the same path `cmd/experiments -scenario` takes; the scenario
// registry is the single source of truth for what each workload is.
func benchScenario(b *testing.B, name string, procs int) {
	b.Helper()
	sc, err := scenario.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(scenario.Params{Procs: procs}); err != nil {
			b.Fatal(err)
		}
	}
}

// The application scenarios beyond the paper's evaluation, at the
// processor count their docs/scenarios.md sections report.
func BenchmarkScenarioHeat(b *testing.B)        { benchScenario(b, "heat", 8) }
func BenchmarkScenarioLife(b *testing.B)        { benchScenario(b, "life", 8) }
func BenchmarkScenarioSSSP(b *testing.B)        { benchScenario(b, "sssp", 8) }
func BenchmarkScenarioPageRankBSP(b *testing.B) { benchScenario(b, "pagerank-bsp", 8) }

// exchangeConfig builds the exchange-heavy steady-state workload shared
// by the BenchmarkExchange* family and the pinned-allocation guard in
// kernel_bench_test.go: the heat example's 16x16 hex mesh with a cheap
// grain, so shadow packing, messaging and unpacking dominate each
// iteration.
func exchangeConfig(tb testing.TB, procs int) ic2mpi.Config {
	tb.Helper()
	g, err := ic2mpi.HexGrid(16, 16)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(7).Partition(g, nil, procs)
	if err != nil {
		tb.Fatal(err)
	}
	return ic2mpi.Config{
		Graph:            g,
		Procs:            procs,
		InitialPartition: part,
		InitData:         workload.InitID,
		Node:             workload.Averaging(workload.UniformGrain(workload.FineGrain)),
		Iterations:       50,
		SkipFinalGather:  true,
	}
}

// benchExchange measures the exchange-heavy steady state. Allocation
// counters (-benchmem) are the headline: the per-iteration
// compute/communicate round reuses pooled send buffers and neighbor lists
// instead of allocating fresh ones.
func benchExchange(b *testing.B, procs int) {
	b.Helper()
	cfg := exchangeConfig(b, procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ic2mpi.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExchange8(b *testing.B)  { benchExchange(b, 8) }
func BenchmarkExchange16(b *testing.B) { benchExchange(b, 16) }

// BenchmarkNetworkModels runs the same exchange-heavy steady state on
// every named interconnect model, measuring the host-side cost of the
// per-message pricing path: "uniform" exercises the runtime's
// devirtualized flat fast path, everything else the generic
// netmodel.Model interface call plus a link-cost matrix lookup.
// allocs/op must not differ across models — pricing is arithmetic, never
// allocation.
func BenchmarkNetworkModels(b *testing.B) {
	g, err := ic2mpi.HexGrid(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(7).Partition(g, nil, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range ic2mpi.NetworkModels() {
		model, err := ic2mpi.NewNetworkModel(name, 8)
		if err != nil {
			b.Fatal(err)
		}
		cfg := ic2mpi.Config{
			Graph:            g,
			Procs:            8,
			InitialPartition: part,
			InitData:         workload.InitID,
			Node:             workload.Averaging(workload.UniformGrain(workload.FineGrain)),
			Iterations:       50,
			SkipFinalGather:  true,
			Network:          model,
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ic2mpi.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetisPartition measures the multilevel partitioner on the
// battlefield-sized graph.
func BenchmarkMetisPartition(b *testing.B) {
	g, err := ic2mpi.HexGrid(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ic2mpi.NewMetis(int64(i)).Partition(g, nil, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBattlefieldStep measures one battlefield time step (two
// sub-phases) on 8 virtual processors.
func BenchmarkBattlefieldStep(b *testing.B) {
	sc := battlefield.DefaultScenario()
	terrain, err := sc.Terrain()
	if err != nil {
		b.Fatal(err)
	}
	part, err := ic2mpi.NewMetis(1).Partition(terrain, nil, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ic2mpi.Config{
		Graph:            terrain,
		Procs:            8,
		InitialPartition: part,
		InitData:         sc.InitData(),
		Node:             sc.NodeFunc(battlefield.DefaultCost()),
		Iterations:       1,
		SubPhases:        2,
		SkipFinalGather:  true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ic2mpi.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
