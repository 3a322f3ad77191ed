package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metric names the benchmark prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	got := append([]string(nil), endToEnd...)
	sort.Strings(got)
	sort.Strings(e2e)
	if len(got) != len(e2e) {
		t.Fatalf("end-to-end metrics %v, BENCHMARK.json declares %v", got, e2e)
	}
	for i := range got {
		if got[i] != e2e[i] {
			t.Fatalf("end-to-end metrics %v, BENCHMARK.json declares %v", got, e2e)
		}
	}
	declared := map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	for _, name := range perLayer {
		if _, ok := declared[name]; !ok {
			t.Errorf("per-layer metric %s is not in BENCHMARK.json", name)
		}
	}
	if len(perLayer) != len(declared) {
		t.Errorf("%d per-layer metrics reported, %d declared", len(perLayer), len(declared))
	}
	for name, unit := range daemonExtras {
		if declared["deepsketchd."+name] != unit {
			t.Errorf("deepsketchd.%s: unit %q, BENCHMARK.json says %q", name, unit, declared["deepsketchd."+name])
		}
	}
}
