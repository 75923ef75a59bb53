package platform

// The exchange buffer pool (Config.ReuseBuffers) must be invisible: a
// pooled run produces exactly the virtual timeline, message counters,
// migrations and final data of the unpooled run. Migrations change which
// processors a rank exchanges with, which sends the pool down its
// fresh-generation path, so the differential runs through them.

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

func TestPooledMatchesUnpooledThroughMigration(t *testing.T) {
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
	for _, kernel := range []mpi.Kernel{mpi.KernelGoroutine, mpi.KernelEvent} {
		for _, overlap := range []bool{false, true} {
			c := cfg
			c.Kernel = kernel
			c.Overlap = overlap
			label := "kernel=" + kernel.String()
			if overlap {
				label += " overlapped"
			}
			c.ReuseBuffers = false
			unpooled, err := Run(c)
			if err != nil {
				t.Fatalf("%s unpooled: %v", label, err)
			}
			c.ReuseBuffers = true
			pooled, err := Run(c)
			if err != nil {
				t.Fatalf("%s pooled: %v", label, err)
			}
			if pooled.Migrations == 0 {
				t.Fatalf("%s: expected migrations to occur", label)
			}
			before := neighborProcs(g, c.InitialPartition, c.Procs)
			after := neighborProcs(g, pooled.FinalPartition, c.Procs)
			if reflect.DeepEqual(before, after) {
				t.Fatalf("%s: no rank's neighbor processors changed; the pool's fresh-generation path did not run", label)
			}
			assertResultsIdentical(t, label, unpooled, pooled)
		}
	}
}
