package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and the metric lists the runs print must name the same
// metrics, or a run's result line would not carry what the file promises.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runs print %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, runs print %s", i, m.Name, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the traced runs print %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, runs print %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workloads[%d] = %s, command runs %s", i, w.Name, workloads[i].name)
		}
	}
}

// Every e2e metric a workload sets must be one BENCHMARK.json names.
func TestJSONLineCarriesExactlyTheCatalog(t *testing.T) {
	r := newResult()
	for _, name := range endToEnd {
		r.set(r.e2e, name, 1, "x", 1)
	}
	count := func(traced bool) int {
		var line struct {
			Metrics map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(r.jsonLine(traced)), &line); err != nil {
			t.Fatal(err)
		}
		return len(line.Metrics)
	}
	if n := count(false); n != len(endToEnd) {
		t.Errorf("untraced line has %d metrics, want %d", n, len(endToEnd))
	}
	r.completeLayers()
	if n := count(true); n != len(perLayer) {
		t.Errorf("traced line has %d metrics, want %d", n, len(perLayer))
	}
}
