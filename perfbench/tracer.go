package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rdgc/internal/gc/marksweep"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// The traced run times calls into each layer from outside, at its public
// boundary: it installs wrappers with Heap.SetAllocator and Heap.SetBarrier
// and calls Reader.Next and Replayer.Apply itself. Nothing inside the
// program is instrumented, so the simulated run is identical with and
// without the wrappers; only host time changes.

// acc is a per-boundary accumulator for calls that happen millions of
// times per round, too many to keep as spans.
type acc struct {
	calls uint64
	ns    int64
}

func (a *acc) add(d time.Duration) {
	a.calls++
	a.ns += int64(d)
}

func (a *acc) seconds() float64 { return float64(a.ns) / 1e9 }

// nsPerCall returns the mean call time, or 0 without calls.
func (a *acc) nsPerCall() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.calls)
}

// span is one timed interval: a workload cell (a program run, a collector
// cell, a replay, a serve run) or a collection inside one. Parent is the
// index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans and accumulators of one traced round. A nil
// *tracer means tracing is off: begin and end then only time the cell,
// and wrap returns the collector unchanged.
type tracer struct {
	epoch   time.Time
	spans   []span
	cell    int // index of the open cell span, or -1
	alloc   acc
	barrier acc
	decode  acc
	apply   acc
	gc      acc // one call per collection span
	allocBy map[string]*acc
	gcBy    map[string]*acc
	pauses  []int64 // collection span durations, ns
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		cell:    -1,
		allocBy: make(map[string]*acc),
		gcBy:    make(map[string]*acc),
	}
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// begin opens a cell span and returns its start time.
func (tr *tracer) begin(name string) time.Time {
	now := time.Now()
	if tr != nil {
		tr.spans = append(tr.spans, span{Name: name, Parent: -1, Start: tr.since(now)})
		tr.cell = len(tr.spans) - 1
	}
	return now
}

// end closes the open cell span and returns its duration.
func (tr *tracer) end(start time.Time) time.Duration {
	now := time.Now()
	if tr != nil && tr.cell >= 0 {
		tr.spans[tr.cell].End = tr.since(now)
		tr.cell = -1
	}
	return now.Sub(start)
}

// collection records one collection span of collector name.
func (tr *tracer) collection(name string, start time.Time, d time.Duration) {
	s := tr.since(start)
	tr.spans = append(tr.spans, span{Name: "gc/" + name, Parent: tr.cell, Start: s, End: s + int64(d)})
	tr.gc.add(d)
	tr.accFor(tr.gcBy, name).add(d)
	tr.pauses = append(tr.pauses, int64(d))
}

func (tr *tracer) accFor(m map[string]*acc, name string) *acc {
	a := m[name]
	if a == nil {
		a = new(acc)
		m[name] = a
	}
	return a
}

// cellSeconds sums the durations of the cell spans.
func (tr *tracer) cellSeconds() float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Parent == -1 {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// childSeconds is the time the cells spent below the mutator: allocation,
// barrier and collections.
func (tr *tracer) childSeconds() float64 {
	return tr.alloc.seconds() + tr.barrier.seconds() + tr.gc.seconds()
}

// pauseQuantile returns the q-quantile of the collection spans, in µs.
func (tr *tracer) pauseQuantile(q float64) float64 {
	if len(tr.pauses) == 0 {
		return 0
	}
	p := append([]int64(nil), tr.pauses...)
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	return float64(p[int(q*float64(len(p)-1))]) / 1e3
}

// writeSpans dumps the spans as JSON into dir.
func (tr *tracer) writeSpans(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// wrap installs the allocation and barrier wrappers for collector c, named
// name in the per-collector metrics, on heap h, and returns the collector
// the workload should drive. With tracing off it returns c itself.
func (tr *tracer) wrap(h *heap.Heap, c heap.Collector, name string) heap.Collector {
	if tr == nil {
		return c
	}
	w := &tracedCollector{Collector: c, tr: tr, name: name, alloc: tr.accFor(tr.allocBy, name)}
	h.SetAllocator(w)
	if b, ok := barrierOf(h, c); ok {
		h.SetBarrier(&tracedBarrier{b: b, tr: tr})
	}
	return w
}

// barrierOf returns the write barrier c installed on h. Every collector
// that implements heap.Barrier installs itself, except stop-the-world
// mark/sweep, whose RecordWrite serves only its incremental mode.
func barrierOf(h *heap.Heap, c heap.Collector) (heap.Barrier, bool) {
	if _, ok := c.(*marksweep.Collector); ok && !h.GCIncremental() {
		return nil, false
	}
	b, ok := c.(heap.Barrier)
	return b, ok
}

// tracedCollector times AllocRaw and Collect. An AllocRaw call that raised
// GCStats().Collections is a collection span; any other is the allocation
// fast path.
type tracedCollector struct {
	heap.Collector
	tr    *tracer
	name  string
	alloc *acc
}

func (w *tracedCollector) AllocRaw(t heap.Type, payload int) heap.Word {
	before := w.Collector.GCStats().Collections
	start := time.Now()
	obj := w.Collector.AllocRaw(t, payload)
	d := time.Since(start)
	if w.Collector.GCStats().Collections != before {
		w.tr.collection(w.name, start, d)
	} else {
		w.tr.alloc.add(d)
		w.alloc.add(d)
	}
	return obj
}

func (w *tracedCollector) Collect() {
	start := time.Now()
	w.Collector.Collect()
	w.tr.collection(w.name, start, time.Since(start))
}

// FullCollect serves trace replay's full-collection events exactly as
// Replayer.Apply does for an unwrapped collector: a whole-heap collection
// where the collector has one, an ordinary one elsewhere.
func (w *tracedCollector) FullCollect() {
	fc, ok := w.Collector.(interface{ FullCollect() })
	if !ok {
		w.Collect()
		return
	}
	start := time.Now()
	fc.FullCollect()
	w.tr.collection(w.name, start, time.Since(start))
}

type tracedBarrier struct {
	b  heap.Barrier
	tr *tracer
}

func (w *tracedBarrier) RecordWrite(obj, val heap.Word) {
	start := time.Now()
	w.b.RecordWrite(obj, val)
	w.tr.barrier.add(time.Since(start))
}

// next and applyEvent time the replay loop's two boundaries.
func (tr *tracer) next(rd *trace.Reader, ev *trace.Event) error {
	start := time.Now()
	err := rd.Next(ev)
	tr.decode.add(time.Since(start))
	return err
}

func (tr *tracer) applyEvent(rp *trace.Replayer, ev *trace.Event) error {
	start := time.Now()
	err := rp.Apply(ev)
	tr.apply.add(time.Since(start))
	return err
}
