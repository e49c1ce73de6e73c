package conformance

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"rdgc/internal/bench"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// goldenPath holds the full GCStats and heap.Stats of every
// generationalGoldenCases run.
const goldenPath = "testdata/generational-golden.json"

// goldenRun is one pinned run's complete statistics.
type goldenRun struct {
	GC   heap.GCStats
	Heap heap.Stats
}

type goldenCase struct {
	name string
	run  func(t *testing.T) goldenRun
}

// goldenHeap returns a heap with every collection knob pinned, so no
// RDGC_GC_* environment can move the runs away from the golden.
func goldenHeap() *heap.Heap {
	h := heap.New()
	h.SetGCWorkers(0)
	h.SetGCLAB(false)
	h.SetGCIncremental(false)
	h.SetGCTenure(1)
	h.SetGCAdaptive(false)
	return h
}

func goldenStats(h *heap.Heap, c heap.Collector) goldenRun {
	return goldenRun{GC: *c.GCStats(), Heap: h.Stats}
}

// generationalGoldenCases covers the conventional generational collector's
// three uses: the Table 3 programs at RunTable3Row's sizing, the decay
// model at the experiments' 1/8 nursery, and the randomized shadow-model
// workload under every promotion policy and both remembered sets.
func generationalGoldenCases() []goldenCase {
	var cases []goldenCase

	cfg := experiments.DefaultTable3Config()
	for i, p := range bench.Quick() {
		cases = append(cases, goldenCase{"table3/" + p.Name(), func(t *testing.T) goldenRun {
			peak, alloc, err := experiments.MeasurePeak(bench.Quick()[i], cfg)
			if err != nil {
				t.Fatal(err)
			}
			nursery := max(cfg.MinNurseryWords, min(int(alloc/cfg.NurseryDivisor), cfg.MaxNurseryWords))
			semi := max(int(cfg.SemiFactor*float64(peak)), 5*nursery/2)
			old := max(semi-nursery, 2*peak+2*nursery)
			h := goldenHeap()
			c := generational.New(h, nursery, old, multigen.WithExpansion(2))
			if err := bench.Quick()[i].Run(h); err != nil {
				t.Fatal(err)
			}
			return goldenStats(h, c)
		}})
	}

	for _, l := range []float64{2, 3} {
		for _, link := range []float64{0, 0.25} {
			cases = append(cases, goldenCase{fmt.Sprintf("decay/L=%g/link=%g", l, link), func(t *testing.T) goldenRun {
				dc := experiments.DecayConfig{HalfLife: 500, L: l, Linking: link}
				total := dc.HeapWords()
				h := goldenHeap()
				c := generational.New(h, total/8, total-total/8)
				w := decay.NewWorkload(h, dc.HalfLife, 1, decay.WithLinking(link))
				w.Warmup(10)
				w.Run(20000)
				return goldenStats(h, c)
			}})
		}
	}

	policies := []struct {
		name string
		opt  func() multigen.Option
	}{
		{"tenure=1", func() multigen.Option { return multigen.WithTenure(1) }},
		{"tenure=2", func() multigen.Option { return multigen.WithTenure(2) }},
		{"tenure=4", func() multigen.Option { return multigen.WithTenure(4) }},
		{"tenure=never", func() multigen.Option { return multigen.WithTenure(heap.TenureNever) }},
		{"adaptive", func() multigen.Option { return multigen.WithAdaptive() }},
		{"ssb", func() multigen.Option { return multigen.WithRemset(remset.NewSSB()) }},
	}
	for _, p := range policies {
		for seed := int64(1); seed <= 2; seed++ {
			cases = append(cases, goldenCase{fmt.Sprintf("randomops/%s/seed%d", p.name, seed), func(t *testing.T) goldenRun {
				h := goldenHeap()
				c := generational.New(h, 1024, 16384, multigen.WithExpansion(2), p.opt())
				gctest.RandomOps(t, h, c, 8000, seed)
				return goldenStats(h, c)
			}})
		}
	}
	return cases
}

// TestGenerationalGolden pins generational.New, the two-generation
// multigen configuration, to the standalone generational engine it
// replaced: testdata/generational-golden.json was generated from that
// engine at commit 925d569, and every run must reproduce its GCStats
// (PeakLive included) and heap.Stats exactly.
func TestGenerationalGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := generationalGoldenCases()
	if len(cases) != len(want) {
		t.Errorf("%d golden entries, %d cases", len(want), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("no golden entry for %s", tc.name)
			}
			if got := tc.run(t); got != w {
				t.Errorf("diverged from the golden:\n  got  %+v\n  want %+v", got, w)
			}
		})
	}
}
