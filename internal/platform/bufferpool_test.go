package platform

// The exchange buffer pool must be invisible: a run computes what the
// sequential reference computes, and a run resumed from a mid-run
// snapshot, whose ranks start with empty pools, reproduces the
// uninterrupted warm-pool run exactly. Migrations change which processors
// a rank exchanges with, which sends the pool down its fresh-generation
// path, so the resume point precedes a migration.

import (
	"reflect"
	"testing"

	"ic2mpi/internal/graph"
	"ic2mpi/internal/mpi"
)

func assertResultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Elapsed != got.Elapsed {
		t.Errorf("%s: Elapsed %v != %v", label, want.Elapsed, got.Elapsed)
	}
	if !reflect.DeepEqual(want.PhaseTimes, got.PhaseTimes) {
		t.Errorf("%s: PhaseTimes differ", label)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: Stats differ:\nwant %+v\ngot  %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.FinalData, got.FinalData) {
		t.Errorf("%s: FinalData differ", label)
	}
	if !reflect.DeepEqual(want.FinalPartition, got.FinalPartition) {
		t.Errorf("%s: FinalPartition differ", label)
	}
	if want.Migrations != got.Migrations {
		t.Errorf("%s: Migrations %d != %d", label, want.Migrations, got.Migrations)
	}
}

// neighborProcs returns, per processor, the set of other processors that
// own a neighbor of one of its nodes under the given partition.
func neighborProcs(g *graph.Graph, part []int, procs int) []map[int]bool {
	sets := make([]map[int]bool, procs)
	for p := range sets {
		sets[p] = make(map[int]bool)
	}
	for v, p := range part {
		for _, u := range g.Adj[v] {
			if q := part[u]; q != p {
				sets[p][q] = true
			}
		}
	}
	return sets
}

func TestPoolResumeThroughMigration(t *testing.T) {
	g := hexGrid(t, 8, 8)
	cfg := baseConfig(g, 4)
	// Proc 0 holds the single row 3, between proc 1 (rows 0-2) and proc 2
	// (rows 4-5); every node it sheds to proc 1 makes procs 1 and 2
	// neighbors.
	for v := range cfg.InitialPartition {
		switch row := v / 8; {
		case row < 3:
			cfg.InitialPartition[v] = 1
		case row == 3:
			cfg.InitialPartition[v] = 0
		case row < 6:
			cfg.InitialPartition[v] = 2
		default:
			cfg.InitialPartition[v] = 3
		}
	}
	cfg.Iterations = 16
	cfg.BalanceEvery = 4
	cfg.Balancer = skewedBalancer{}
	cfg.DisableMigrationGuard = true
	want, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []mpi.Kernel{mpi.KernelGoroutine, mpi.KernelEvent} {
		for _, overlap := range []bool{false, true} {
			c := cfg
			c.Kernel = kernel
			c.Overlap = overlap
			label := "kernel=" + kernel.String()
			if overlap {
				label += " overlapped"
			}
			warm, _, snaps := runWithSnapshots(t, c)
			if !reflect.DeepEqual(warm.FinalData, want) {
				t.Fatalf("%s: FinalData differ from the sequential reference", label)
			}
			// Resume from the latest boundary at or before mid-run after
			// which some rank's neighbor processors still change.
			after := neighborProcs(g, warm.FinalPartition, c.Procs)
			mid := snaps[c.Iterations/2]
			for mid.Iter > 1 && reflect.DeepEqual(neighborProcs(g, mid.Owner, c.Procs), after) {
				mid = snaps[mid.Iter-1]
			}
			if reflect.DeepEqual(neighborProcs(g, mid.Owner, c.Procs), after) {
				t.Fatalf("%s: no rank's neighbor processors changed after iteration %d; the pool's fresh-generation path did not run", label, mid.Iter)
			}
			c.ResumeFrom = mid
			resumed, err := Run(c)
			if err != nil {
				t.Fatalf("%s resumed: %v", label, err)
			}
			assertResultsIdentical(t, label, warm, resumed)
		}
	}
}
