package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestWorkloadsToyScale runs every workload at toy scale, untraced and
// traced. Every named metric must be emitted with its unit, every output
// check must pass, and the simulated counts must not depend on tracing.
func TestWorkloadsToyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := measure(w, 3, 0, false, &toy)
			traced := measure(w, 3, 0, true, &toy)
			for _, res := range []*result{plain, traced} {
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("failed %d of %d: %v", res.failed, res.attempted, res.failures)
				}
			}
			checkEmitted(t, plain, false, endToEndMetrics)
			checkEmitted(t, traced, true, perLayerMetrics)

			// Each traced run also makes an untraced round and fails unless
			// the two simulate identically; compare across runs too.
			p, q := plain.plain[0].sim, traced.traced[0].sim
			if p != q {
				t.Fatalf("traced simulation %+v differs from untraced %+v", q, p)
			}
			if p.Collections == 0 {
				t.Fatal("no collections: the toy scale does not exercise the collectors")
			}
			if traced.layers["sim.words_allocated"] != float64(p.Words) ||
				traced.layers["gc.collections"] != float64(p.Collections) ||
				traced.layers["gc.words_copied"] != float64(p.Copied) ||
				traced.layers["gc.words_marked"] != float64(p.Marked) ||
				traced.layers["gc.words_swept"] != float64(p.Swept) {
				t.Fatalf("traced layer counts %v disagree with untraced simulation %+v", traced.layers, p)
			}
		})
	}
}

// checkEmitted parses the JSON result line and checks it carries exactly
// the metrics of defs, each with its unit.
func checkEmitted(t *testing.T, res *result, traced bool, defs []metric) {
	t.Helper()
	var out bytes.Buffer
	line, correct, err := res.report(&out, traced)
	if err != nil || !correct {
		t.Fatalf("report: correct=%v err=%v\n%s", correct, err, out.String())
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(defs) {
		t.Fatalf("%d metrics emitted, want %d", len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Fatalf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
		if !traced && m.Value == 0 {
			t.Fatalf("end-to-end metric %s is 0", d.Name)
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json at the repository root
// names exactly the workloads and metrics this command emits.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		file, want []metric
	}{{b.EndToEnd, endToEndMetrics}, {b.PerLayer, perLayerMetrics}} {
		if !reflect.DeepEqual(c.file, c.want) {
			t.Errorf("BENCHMARK.json metrics %v, want %v", c.file, c.want)
		}
	}
}
