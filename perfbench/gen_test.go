package main

import (
	"testing"

	"ic2mpi/internal/experiments"
	"ic2mpi/internal/scenario"
)

func genSeq(t *testing.T, seed int64, client, n int) []genJob {
	t.Helper()
	nodes, err := catalogueNodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := newJobGen(seed, client, daemonClients, nodes)
	seq := make([]genJob, n)
	for i := range seq {
		if seq[i], err = g.next(); err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// TestRepeatShareFixed pins the generator's repeat share: exactly
// repeatShare of the jobs repeat an earlier spec at two sequence
// lengths, so the cache-hit share does not drift with run length.
func TestRepeatShareFixed(t *testing.T) {
	for _, n := range []int{100, 1000} {
		for c := 0; c < daemonClients; c++ {
			repeats := 0
			for _, j := range genSeq(t, 7, c, n) {
				if j.repeat {
					repeats++
				}
			}
			if got := float64(repeats) / float64(n); got != repeatShare {
				t.Errorf("length %d client %d: repeat share %v, want %v", n, c, got, repeatShare)
			}
		}
	}
}

// TestFreshCellsAreNew checks the property the exact share rests on:
// no fresh cacheable job shares a cell with any earlier job of either
// client, and a repeat names only cells its own client ran before.
func TestFreshCellsAreNew(t *testing.T) {
	seen := map[string]int{} // cell key → client
	seqs := [][]genJob{genSeq(t, 9, 0, 300), genSeq(t, 9, 1, 300)}
	for i := 0; i < 300; i++ {
		for c, seq := range seqs {
			j := seq[i]
			if j.spec.Trace {
				continue
			}
			sc, err := scenario.Get(j.spec.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			ax, err := experiments.ParseAxes(j.spec.Sweep)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ax.Cells() {
				key, err := experiments.CellKey(sc, p)
				if err != nil {
					t.Fatal(err)
				}
				owner, ok := seen[key]
				switch {
				case j.repeat && (!ok || owner != c):
					t.Fatalf("client %d job %d repeats cell %s it never ran", c, i, key)
				case !j.repeat && ok:
					t.Fatalf("client %d job %d: fresh cell %s ran before", c, i, key)
				}
				seen[key] = c
			}
		}
	}
}

// TestLoadGeneratorConnections checks that the closed-loop load
// generator opens no more connections than it has clients, and no more
// clients than the reference host's two cores.
func TestLoadGeneratorConnections(t *testing.T) {
	if daemonClients > 2 {
		t.Fatalf("%d daemon clients; the workload is defined for at most 2", daemonClients)
	}
	nodes, err := catalogueNodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(4, nodes, 2*repeatBlock)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	lr := drive(d, plan, 2*repeatBlock)
	d.stop()
	if lr.t.failed != 0 {
		t.Fatalf("%d jobs failed: %v", lr.t.failed, lr.t.firstErr)
	}
	if got := d.conns.Load(); got < 1 || got > daemonClients {
		t.Fatalf("load generator opened %d connections for %d clients", got, daemonClients)
	}
}
