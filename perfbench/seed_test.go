package main

import (
	"reflect"
	"testing"
)

// simCounts is one traced op's simulated outputs and exact counts.
type simCounts struct {
	out        simOut
	nodeCalls  int64
	msgs, byts int
	migrations int
}

func tracedCounts(t *testing.T, spec simSpec, seed int64) simCounts {
	t.Helper()
	w, ref := smallWorld(t, spec, seed)
	p := &opProbe{tr: newTracer()}
	out := runOK(t, w, p)
	if err := ref.check(out); err != nil {
		t.Fatalf("%s seed %d: %v", spec.name, seed, err)
	}
	calls, _ := p.node.totals()
	msgs, byts := statSums(out.res)
	return simCounts{out: out, nodeCalls: calls, msgs: msgs, byts: byts, migrations: out.res.Migrations}
}

// TestSeedDeterminesOutputs: the same seed gives identical simulated
// outputs and exact counts; another seed generates other inputs, which
// still verify.
func TestSeedDeterminesOutputs(t *testing.T) {
	for _, spec := range []simSpec{meshCoarse, rankSwarm, balanceChurn} {
		a, b := tracedCounts(t, spec, 11), tracedCounts(t, spec, 11)
		if !reflect.DeepEqual(a.out.res, b.out.res) || string(a.out.traceJSONL) != string(b.out.traceJSONL) {
			t.Errorf("%s: same seed, different simulated outputs", spec.name)
		}
		if a.nodeCalls != b.nodeCalls || a.msgs != b.msgs || a.byts != b.byts || a.migrations != b.migrations {
			t.Errorf("%s: same seed, different exact counts: %+v vs %+v", spec.name,
				[]int64{a.nodeCalls, int64(a.msgs), int64(a.byts), int64(a.migrations)},
				[]int64{b.nodeCalls, int64(b.msgs), int64(b.byts), int64(b.migrations)})
		}
		if reflect.DeepEqual(genSimInputs(small(spec), 11), genSimInputs(small(spec), 12)) {
			t.Errorf("%s: seeds 11 and 12 generate the same inputs", spec.name)
		}
		c := tracedCounts(t, spec, 12) // verifies against its own reference
		if reflect.DeepEqual(a.out.res.FinalData, c.out.res.FinalData) {
			t.Errorf("%s: seeds 11 and 12 give the same final data", spec.name)
		}
	}
}

// TestSeedDeterminesDaemonMix: the same seed gives the same job
// sequence, result bytes and cache-hit share; another seed gives other
// jobs, which still verify.
func TestSeedDeterminesDaemonMix(t *testing.T) {
	const perClient = 2 * repeatBlock
	planA, a := smallDaemonRun(t, 21, perClient)
	planB, b := smallDaemonRun(t, 21, perClient)
	planC, _ := smallDaemonRun(t, 22, perClient)
	ma, mb := daemonLayers(planA, a, nil), daemonLayers(planB, b, nil)
	for _, name := range []string{"experiments.cells", "trace.samples", "trace.bytes", "server.cache_hit_ratio"} {
		if ma[name] != mb[name] {
			t.Errorf("same seed, %s %v vs %v", name, ma[name], mb[name])
		}
	}
	if got := ma["server.cache_hit_ratio"].Value; got != repeatShare {
		t.Errorf("cache-hit share %v, want %v", got, repeatShare)
	}
	for c := range planA.seqs {
		for i := range planA.seqs[c][:perClient] {
			ja, jb, jc := planA.seqs[c][i], planB.seqs[c][i], planC.seqs[c][i]
			if string(ja.body) != string(jb.body) {
				t.Fatalf("client %d job %d: same seed, different specs", c, i)
			}
			if planA.oracles[oracleKey(ja)].resultSum != planB.oracles[oracleKey(jb)].resultSum {
				t.Fatalf("client %d job %d: same seed, different result bytes", c, i)
			}
			if i == 0 && string(ja.body) == string(jc.body) {
				t.Errorf("client %d: seeds 21 and 22 start with the same spec", c)
			}
		}
	}
}
