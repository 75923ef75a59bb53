package ic2mpi_test

// Scale smoke: the event kernels' reason to exist is worlds of thousands
// of simulated processors on one host. These tests run the paper's
// hex64-fine scenario at 4096 and 16384 simulated procs under the event
// and parallel event kernels and assert both completion and a per-rank
// memory ceiling — the flat-memory property that the per-rank neighbor
// lists and matrix-free topologies buy. Skipped with -short; CI runs them
// in a dedicated job. TestFinalDataAt2048Ranks checks the node data
// itself at a scale the kernel-equivalence grid does not reach.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
	"ic2mpi/internal/netmodel"
	"ic2mpi/internal/partition"
	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// peakMemDuring runs fn while a poller samples heap + goroutine-stack
// usage, and returns the peak observed in-use bytes above the pre-run
// baseline. ReadMemStats is a stop-the-world sample, so the poll period
// is deliberately coarse.
func peakMemDuring(fn func()) uint64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	baseline := base.HeapInuse + base.StackInuse

	var peak atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if used := m.HeapInuse + m.StackInuse; used > peak.Load() {
					peak.Store(used)
				}
			}
		}
	}()
	fn()
	// One final sample so short runs that finish between ticks still count.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if used := m.HeapInuse + m.StackInuse; used > peak.Load() {
		peak.Store(used)
	}
	close(stop)
	wg.Wait()
	if p := peak.Load(); p > baseline {
		return p - baseline
	}
	return 0
}

func TestEventKernelScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped with -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the memory ceiling")
	}
	sc, err := scenario.Get("hex64-fine")
	if err != nil {
		t.Fatal(err)
	}
	// The ceiling is deliberately generous: the dominant per-rank costs
	// are one suspended goroutine stack (the coroutine carrier the event
	// kernel parks ranks on) plus the rank state, whose neighbor lists
	// are O(degree), together well under 16 KiB on every measured
	// configuration. A regression to O(P) per-rank vectors or per-rank
	// channel mailboxes blows through it by an order of magnitude.
	const perRankCeiling = 32 << 10 // bytes
	for _, kernel := range []string{"event", "pevent"} {
		for _, procs := range []int{4096, 16384} {
			kernel, procs := kernel, procs
			t.Run(fmt.Sprintf("kernel=%s/procs=%d", kernel, procs), func(t *testing.T) {
				cfg, err := sc.Config(scenario.Params{
					Procs:      procs,
					Kernel:     kernel,
					Iterations: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				var res *platform.Result
				peak := peakMemDuring(func() {
					var runErr error
					res, runErr = platform.Run(*cfg)
					if runErr != nil {
						t.Errorf("run failed: %v", runErr)
					}
				})
				if t.Failed() {
					return
				}
				if res.Elapsed <= 0 {
					t.Errorf("elapsed %v, want > 0", res.Elapsed)
				}
				if len(res.Stats) != procs {
					t.Fatalf("stats for %d ranks, want %d", len(res.Stats), procs)
				}
				perRank := peak / uint64(procs)
				t.Logf("kernel=%s procs=%d peak=%d bytes (%.1f KiB/rank)", kernel, procs, peak, float64(perRank)/1024)
				if perRank > perRankCeiling {
					t.Errorf("per-rank memory %d bytes exceeds ceiling %d", perRank, perRankCeiling)
				}
			})
		}
	}
}

// TestFinalDataAt2048Ranks runs a 64x64 heat mesh on 2048 ranks (two
// nodes each, RCB-partitioned) under every kernel and requires the
// gathered final data to equal the sequential reference bit for bit.
func TestFinalDataAt2048Ranks(t *testing.T) {
	const procs = 2048
	g, err := graph.HexGrid(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.RCB{}.Partition(g, nil, procs)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netmodel.New(netmodel.NameHypercube, procs)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	base := platform.Config{
		Graph:            g,
		Procs:            procs,
		InitialPartition: part,
		// Distinct data on every node, so a lost or misrouted shadow
		// update shows in the result.
		InitData:   func(id graph.NodeID) platform.NodeData { return scenario.Temp(int64(id) * 7919 % 1_000_003) },
		Node:       scenario.HeatNode(n),
		Iterations: 3,
		Network:    net,
	}
	want, err := platform.RunSequential(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []mpi.Kernel{mpi.KernelGoroutine, mpi.KernelEvent, mpi.KernelParallelEvent} {
		t.Run("kernel="+kernel.String(), func(t *testing.T) {
			cfg := base
			cfg.Kernel = kernel
			res, err := platform.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FinalData) != n {
				t.Fatalf("final data for %d nodes, want %d", len(res.FinalData), n)
			}
			for v := range want {
				if res.FinalData[v] != want[v] {
					t.Fatalf("node %d: final data %v, sequential %v", v, res.FinalData[v], want[v])
				}
			}
		})
	}
}
