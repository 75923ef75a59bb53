package main

import (
	"bytes"
	"reflect"
	"testing"

	"ic2mpi/internal/platform"
)

type plainBal struct{}

func (plainBal) Name() string                            { return "plain" }
func (plainBal) Plan(platform.ProcGraph) []platform.Pair { return nil }

type histBal struct{ plainBal }

func (histBal) PlanWithHistory(platform.ProcGraph, []platform.LoadSample) []platform.Pair {
	return nil
}

type validBal struct{ plainBal }

func (validBal) Validate() error { return nil }

type bothBal struct{ histBal }

func (bothBal) Validate() error { return nil }

// TestWrapBalancerForwardsOptionalInterfaces checks that the traced
// wrapper implements exactly the optional interfaces of the balancer it
// wraps.
func TestWrapBalancerForwardsOptionalInterfaces(t *testing.T) {
	for _, inner := range []platform.Balancer{plainBal{}, histBal{}, validBal{}, bothBal{}} {
		w := wrapBalancer(inner, &planAgg{})
		_, innerHist := inner.(platform.HistoryBalancer)
		_, innerValid := inner.(platform.ValidatingBalancer)
		_, wrapHist := w.(platform.HistoryBalancer)
		_, wrapValid := w.(platform.ValidatingBalancer)
		if innerHist != wrapHist || innerValid != wrapValid {
			t.Errorf("%T: wrapper history=%v validating=%v, inner history=%v validating=%v",
				inner, wrapHist, wrapValid, innerHist, innerValid)
		}
	}
	if wrapBalancer(nil, &planAgg{}) != nil {
		t.Error("wrapping no balancer must give no balancer")
	}
}

// TestTracedChurnOpMatchesUntraced runs one balance-churn op traced and
// one untraced: the virtual result, migrations and trace bytes must be
// identical, and the traced predictive balancer must have planned.
func TestTracedChurnOpMatchesUntraced(t *testing.T) {
	w, ref := smallWorld(t, balanceChurn, 5)
	plain := runOK(t, w, nil)
	p := &opProbe{tr: newTracer()}
	traced := runOK(t, w, p)
	if err := ref.check(plain); err != nil {
		t.Fatal(err)
	}
	if err := ref.check(traced); err != nil {
		t.Fatalf("traced op: %v", err)
	}
	if plain.res.Migrations == 0 {
		t.Fatal("the shrunken balance-churn op migrated nothing; the comparison is vacuous")
	}
	if !reflect.DeepEqual(plain.res, traced.res) {
		t.Error("traced result differs from untraced")
	}
	if !bytes.Equal(plain.traceJSONL, traced.traceJSONL) {
		t.Error("traced trace JSONL differs from untraced")
	}
	if p.plan.calls.Load() == 0 {
		t.Error("traced balancer recorded no Plan calls")
	}
	calls, _ := p.node.totals()
	if want := int64(w.nodes * w.spec.iters); calls != want {
		t.Errorf("node calls %d, want %d", calls, want)
	}
}
