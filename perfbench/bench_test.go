package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s vs %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		l := perLayer[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer %d: %+v vs %s %s %s", i, m, l.name, l.unit, l.better)
		}
	}
}

// TestHeldOutSeed runs every workload on the default and the held-out
// seed: the inputs differ, so the virtual metrics do, and every
// correctness gate holds on both.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			def, err := w.run(subSeed(DefaultSeed, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			held, err := w.run(subSeed(HeldOutSeed, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*run{def, held} {
				if r.Gate != "" {
					t.Errorf("gate failed: %s", r.Gate)
				}
				if r.Failed != 0 || r.Completed == 0 {
					t.Errorf("%d of %d operations failed, %d completed", r.Failed, r.Attempted, r.Completed)
				}
			}
			if diffVirtual(def.Virtual, held.Virtual) == "" {
				t.Errorf("held-out seed reproduced the default seed's metrics: %v", def.Virtual)
			}
		})
	}
}
