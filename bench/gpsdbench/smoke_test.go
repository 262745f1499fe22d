package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBenchmarkSpec keeps BENCHMARK.json and the harness in step: the
// same workloads, and the same metric names, units and directions.
func TestBenchmarkSpec(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestSmoke runs every workload, cluster-tree too, for two seconds at no
// more than 1k sessions, end to end against built gpsd processes and
// traced in process, and requires every output check to pass and every
// metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots gpsd stacks")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if err := buildBinaries(root, bin); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		for _, w := range append(workloads, clusterTree) {
			r := &runner{
				root: root, work: filepath.Join(t.TempDir(), w.name), seed: 1,
				window: 2 * time.Second, warmup: 200 * time.Millisecond, setups: 1, traced: traced,
				gpsd: filepath.Join(bin, "gpsd"), walcheck: filepath.Join(bin, "walcheck"),
				population: 1000,
			}
			res, err := r.run(w)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s (traced %v): failed %d of %d: %v %+v", w.name, traced, res.Failed, res.Attempted, res.Failures, res.Checks)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s (traced %v): no %s", w.name, traced, d.name)
				}
			}
		}
	}
}
