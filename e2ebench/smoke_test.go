package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at 1% of its size, untraced and traced,
// and checks that every correctness gate passes, that exactly the metrics
// BENCHMARK.json names are printed with their units, and that another seed
// changes the inputs but not the metric set.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			metrics := spec.EndToEnd
			if trace {
				metrics = spec.PerLayer
			}
			for _, m := range metrics {
				want[m.Name] = m.Unit
			}
			var inputs []uint64
			for _, seed := range []int64{1, 2} {
				o := options{workload: name, seed: seed, seconds: 0.2, trace: trace, scale: 0.01, parallelism: 2, dir: t.TempDir()}
				res, err := run(o)
				if err != nil {
					t.Fatalf("%s trace=%v seed=%d: %v", name, trace, seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s trace=%v seed=%d: correct=%v failed=%d/%d", name, trace, seed, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace=%v seed=%d: %d metrics, want %d", name, trace, seed, len(res.Metrics), len(want))
				}
				for metricName, m := range res.Metrics {
					if unit, ok := want[metricName]; !ok || unit != m.Unit {
						t.Errorf("%s trace=%v seed=%d: metric %s in %q, want it named in BENCHMARK.json (unit %q)", name, trace, seed, metricName, m.Unit, unit)
					}
				}
				inputs = append(inputs, res.inputs)
			}
			if inputs[0] == inputs[1] {
				t.Errorf("%s trace=%v: seeds 1 and 2 generated the same inputs", name, trace)
			}
		}
	}
}
