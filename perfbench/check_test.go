package main

import (
	"testing"

	"ic2mpi/internal/platform"
	"ic2mpi/internal/scenario"
)

// small shrinks a simulation workload so a test op takes milliseconds.
func small(spec simSpec) simSpec {
	spec.rows, spec.cols = 16, 16
	spec.procs = min(spec.procs, 8)
	if spec.checkpointEvery > 0 {
		spec.iters, spec.checkpointEvery = 20, 5
	} else {
		spec.iters = 6
	}
	return spec
}

// smallWorld builds a shrunken world and its checker.
func smallWorld(t *testing.T, spec simSpec, seed int64) (*world, *simRef) {
	t.Helper()
	w, err := buildWorld(small(spec), genSimInputs(small(spec), seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := platform.RunSequential(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, &simRef{seq: seq}
}

func runOK(t *testing.T, w *world, p *opProbe) simOut {
	t.Helper()
	out, err := w.runOp(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckerCatchesCorruption feeds the checkers one corrupted final
// node, one flipped /result byte and one resumed trace whose bytes
// differ, and asserts each is counted as a failed op while the clean
// ops are not.
func TestCheckerCatchesCorruption(t *testing.T) {
	var clean, dirty tally

	// A corrupted FinalData node.
	w, ref := smallWorld(t, meshCoarse, 1)
	out := runOK(t, w, nil)
	clean.record(ref.check(out))
	clean.record(ref.check(runOK(t, w, nil)))
	bad := *out.res
	bad.FinalData = append([]platform.NodeData(nil), out.res.FinalData...)
	bad.FinalData[7] = bad.FinalData[7].(scenario.Temp) + 1
	out.res = &bad
	dirty.record(ref.check(out))

	// A resumed trace whose bytes differ.
	cw, cref := smallWorld(t, balanceChurn, 1)
	cout := runOK(t, cw, nil)
	clean.record(cref.check(cout))
	cout.resumedTrace = append([]byte(nil), cout.resumedTrace...)
	cout.resumedTrace[len(cout.resumedTrace)/2] ^= 1
	dirty.record(cref.check(cout))

	// A flipped /result byte.
	plan, j, o := fetchJob(t, 1, func(genJob) bool { return true })
	clean.record(checkJob(j, plan.oracles[oracleKey(j)], o))
	o.result[0] ^= 0x20
	dirty.record(checkJob(j, plan.oracles[oracleKey(j)], o))

	if clean.failed != 0 || clean.failedFrac() != 0 {
		t.Fatalf("clean ops: %d of %d failed (%v)", clean.failed, clean.attempted, clean.firstErr)
	}
	if dirty.attempted != 3 || dirty.failed != 3 || dirty.failedFrac() != 1 {
		t.Fatalf("corrupted ops: %d of %d counted as failed, want 3 of 3", dirty.failed, dirty.attempted)
	}
}

// TestCheckerCatchesCacheAccounting pins the daemon checker's cache
// expectation: a repeat job not served from cache is a failed op.
func TestCheckerCatchesCacheAccounting(t *testing.T) {
	plan, j, o := fetchJob(t, 2, func(j genJob) bool { return j.repeat })
	if err := checkJob(j, plan.oracles[oracleKey(j)], o); err != nil {
		t.Fatal(err)
	}
	o.cacheHits = 0
	if err := checkJob(j, plan.oracles[oracleKey(j)], o); err == nil {
		t.Fatal("a repeat job with no cache hits passed the check")
	}
}

// TestTraceJobBytesChecked: a trace job whose /trace bytes differ from
// the oracle's is a failed op.
func TestTraceJobBytesChecked(t *testing.T) {
	plan, j, o := fetchJob(t, 3, func(j genJob) bool { return j.spec.Trace })
	if err := checkJob(j, plan.oracles[oracleKey(j)], o); err != nil {
		t.Fatal(err)
	}
	o.trace[len(o.trace)-2] ^= 1
	if err := checkJob(j, plan.oracles[oracleKey(j)], o); err == nil {
		t.Fatal("a trace job with corrupted /trace bytes passed the check")
	}
}

// fetchJob runs client 0's sequence in order on a fresh daemon until a
// job matches want, and returns that job with its fetched outputs.
func fetchJob(t *testing.T, seed int64, want func(genJob) bool) (*daemonPlan, genJob, jobOut) {
	t.Helper()
	nodes, err := catalogueNodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(seed, nodes, 2*repeatBlock)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	c := newLoadClient()
	defer c.CloseIdleConnections()
	for _, j := range plan.seqs[0] {
		out, err := runJob(c, d.ts.URL, j)
		if err != nil {
			t.Fatal(err)
		}
		if want(j) {
			return plan, j, out
		}
	}
	t.Fatal("no matching job in the sequence")
	return nil, genJob{}, jobOut{}
}

// smallDaemonRun drives a fresh daemon through the first perClient jobs
// of each client's sequence.
func smallDaemonRun(t *testing.T, seed int64, perClient int) (*daemonPlan, loadResult) {
	t.Helper()
	nodes, err := catalogueNodes(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(seed, nodes, perClient)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	lr := drive(d, plan, perClient)
	d.stop()
	if lr.t.failed != 0 {
		t.Fatalf("%d of %d daemon jobs failed: %v", lr.t.failed, lr.t.attempted, lr.t.firstErr)
	}
	if got := len(lr.jobs); got != perClient*daemonClients {
		t.Fatalf("ran %d jobs, want %d", got, perClient*daemonClients)
	}
	return plan, lr
}
