package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics this program reports,
// with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}
	for _, list := range []struct {
		declared []struct{ Name, Unit string }
		units    map[string]string
	}{{b.EndToEnd, endToEndUnits}, {b.PerLayer, layerUnits}} {
		if len(list.declared) != len(list.units) {
			t.Errorf("BENCHMARK.json declares %d metrics, program reports %d", len(list.declared), len(list.units))
		}
		for _, m := range list.declared {
			if u, ok := list.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, u)
			}
		}
	}
}
