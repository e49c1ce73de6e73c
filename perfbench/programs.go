package main

import (
	"math/rand"

	"rdgc/internal/bench"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/heap"
)

// sized builds collector name the way gctrace replay sizes it for a
// workload whose comfortable heap is total words.
func sized(h *heap.Heap, name string, total int) heap.Collector {
	for _, nc := range gcfuzz.CollectorsSized(total) {
		if nc.Name == name {
			return nc.New(h)
		}
	}
	panic("perfbench: unknown collector " + name)
}

type programCell struct {
	p bench.Program
	h *heap.Heap
	c heap.Collector
}

// setupPrograms builds the programs, in an order the seed shuffles, each
// with a fresh heap under the hybrid collector. The round runs each once;
// the programs check their own results.
func setupPrograms(seed int64, sc *scale) (runFunc, map[string]float64, error) {
	progs := sc.programs()
	rand.New(rand.NewSource(seed)).Shuffle(len(progs), func(i, j int) {
		progs[i], progs[j] = progs[j], progs[i]
	})
	cells := make([]programCell, len(progs))
	for i, p := range progs {
		h := heap.New()
		cells[i] = programCell{p, h, sized(h, "hybrid", p.HeapWords())}
	}
	return func(tr *tracer) round {
		return runPrograms(cells, tr)
	}, nil, nil
}

func runPrograms(cells []programCell, tr *tracer) round {
	var r round
	for i, c := range cells {
		cells[i] = programCell{} // let the Go collector take the heap once it has run
		t := tr.begin("program/" + c.p.Name())
		tr.wrap(c.h, c.c, "hybrid")
		err := protect(func() error { return c.p.Run(c.h) })
		r.wall += tr.end(t)
		r.attempted++
		if err != nil {
			r.fail("program %s: %v", c.p.Name(), err)
		}
		r.sim.addHeap(c.h.Stats)
		r.sim.addGC(c.c.GCStats())
	}
	r.events = r.sim.Objects
	if tr != nil {
		r.layer("bench.self_s", tr.cellSeconds()-tr.childSeconds())
	}
	return r
}
