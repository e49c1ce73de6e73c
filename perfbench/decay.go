package main

import (
	"fmt"
	"math"

	"rdgc/internal/analytic"
	"rdgc/internal/core"
	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/npms"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// The decay workload's model parameters: a low inverse load factor makes
// the collectors work hard, and mixed object sizes exercise the allocation
// paths; there is no linking, so the paper's closed forms apply.
const (
	decayL       = 2
	decayG       = 0.25 // Theorem 4 holds at L=2 for g up to about 0.38
	decayK       = 16
	decaySizeMin = 4
	decaySizeMax = 60
	decayWarmup  = 10 // half-lives, as internal/experiments warms up
)

// decayCollector builds one collector sized the way internal/experiments
// sizes it for the model. closed is the paper's closed-form mark/cons
// ratio for the collector, or 0 where the paper gives none.
type decayCollector struct {
	name   string
	build  func(h *heap.Heap, n int) heap.Collector
	closed float64
}

var decayCollectors = []decayCollector{
	{"semispace", func(h *heap.Heap, n int) heap.Collector {
		return semispace.New(h, n)
	}, analytic.NonGenerationalMarkCons(decayL)},
	{"marksweep", func(h *heap.Heap, n int) heap.Collector {
		return marksweep.New(h, n)
	}, analytic.NonGenerationalMarkCons(decayL)},
	{"generational", func(h *heap.Heap, n int) heap.Collector {
		nursery := n / 8
		return generational.New(h, nursery, n-nursery)
	}, 0},
	{"nonpredictive", func(h *heap.Heap, n int) heap.Collector {
		return core.New(h, decayK, n/decayK, core.WithPolicy(core.FractionJ(decayG)))
	}, analytic.MarkCons(decayG, decayL)},
	{"hybrid", func(h *heap.Heap, n int) heap.Collector {
		nursery := n / 8
		k := decayK
		if m := 2 * (n - nursery) / nursery; k > m && m >= 2 {
			k = m // the step size must be at least half the nursery size
		}
		return hybrid.New(h, nursery, k, (n-nursery)/k, hybrid.WithPolicy(core.FractionJ(decayG)))
	}, 0},
	{"multigen", func(h *heap.Heap, n int) heap.Collector {
		return multigen.New(h, []int{n >> 3, n >> 2, n - n>>3 - n>>2})
	}, 0},
	{"npms", func(h *heap.Heap, n int) heap.Collector {
		return npms.New(h, decayK, n/decayK, npms.WithG(decayG))
	}, 0},
}

// setupDecay builds one heap, collector and decay workload per collector,
// all on identical seeded mutator input. The round warms each up for ten
// half-lives, then measures the mark/cons ratio over sc.decaySteps
// allocations. Heap invariants are checked after every cell, outside the
// timed phase.
func setupDecay(seed int64, sc *scale) (runFunc, map[string]float64, error) {
	cfg := experiments.DecayConfig{
		HalfLife: sc.decayHalfLife, L: decayL, SizeMin: decaySizeMin, SizeMax: decaySizeMax,
	}
	n := cfg.HeapWords()
	cells := make([]decayCell, len(decayCollectors))
	for i, dc := range decayCollectors {
		h := heap.New()
		cells[i] = decayCell{dc, h, dc.build(h, n),
			decay.NewWorkload(h, sc.decayHalfLife, seed, decay.WithSizes(decaySizeMin, decaySizeMax))}
	}
	return func(tr *tracer) round {
		return runDecay(cells, sc.decaySteps, tr)
	}, nil, nil
}

type decayCell struct {
	dc decayCollector
	h  *heap.Heap
	c  heap.Collector
	w  *decay.Workload
}

func runDecay(cells []decayCell, steps int, tr *tracer) round {
	var r round
	for i, c := range cells {
		cells[i] = decayCell{} // let the Go collector take the heap once it has run
		var window float64
		t := tr.begin("decay/" + c.dc.name)
		tr.wrap(c.h, c.c, c.dc.name)
		err := protect(func() error {
			c.w.Warmup(decayWarmup)
			alloc0, g0 := c.h.Stats.WordsAllocated, *c.c.GCStats()
			c.w.Run(steps)
			g1 := c.c.GCStats()
			window = float64(g1.WordsCopied-g0.WordsCopied+g1.WordsMarked-g0.WordsMarked) /
				float64(c.h.Stats.WordsAllocated-alloc0)
			return nil
		})
		r.wall += tr.end(t)
		if err == nil {
			err = heap.Check(c.h)
		}
		if err == nil {
			err = heap.VerifyCollector(c.h, c.c)
		}
		r.attempted++
		if err != nil {
			r.fail("decay %s: %v", c.dc.name, err)
		}
		if c.dc.closed > 0 {
			r.markConsErr = math.Max(r.markConsErr, math.Abs(window-c.dc.closed)/c.dc.closed)
		}
		g := c.c.GCStats()
		r.sim.addHeap(c.h.Stats)
		r.sim.addGC(g)
		r.digest += fmt.Sprintf("%s:%d/%d/%d/%.6f ", c.dc.name, g.Collections, g.WordsCopied, g.WordsMarked, window)
	}
	r.events = r.sim.Objects
	if tr != nil {
		r.layer("decay.self_s", tr.cellSeconds()-tr.childSeconds())
	}
	return r
}
