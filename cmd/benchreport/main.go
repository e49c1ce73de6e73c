// Command benchreport measures the repository's tracing hot paths and
// emits a machine-readable perf baseline (BENCH_*.json): ns/op for the
// engine microbenchmarks (a steady-state Cheney flip, a steady-state mark
// cycle, and the bitmap-vs-header mark representations), engine-scaling and
// sweep-phase rows at each worker count, and words-traced/sec for every
// collector on the radioactive decay workload. `make bench` runs it; `make bench-compare` diffs the two
// most recent BENCH_*.json files.
//
// With -before FILE, the report written to -out embeds FILE as the "before"
// run and the current measurements as "after", plus per-benchmark speedups —
// the format the repo checks in so future PRs are judged against a measured
// trajectory, not a guess.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"rdgc/internal/bench"
	"rdgc/internal/bench/dyninfer"
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
	"rdgc/internal/runner"
	"rdgc/internal/serve"
	"rdgc/internal/trace"
)

// EngineResult is one tracing-engine microbenchmark: a fixed object graph
// traced repeatedly by a persistent engine.
type EngineResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// Iterations is the raw b.N of the kept (fastest) round — the
	// denominator behind NsPerOp, recorded so two reports can be judged on
	// comparable sample sizes.
	Iterations  int     `json:"iterations,omitempty"`
	WordsPerOp  uint64  `json:"words_per_op"`
	WordsPerSec float64 `json:"words_per_sec"`
}

// CollectorResult is one collector's throughput on the decay workload.
// GCWorkers is 0 for the default sequential engines; parallel grid rows
// carry the tracing-worker count they ran with.
type CollectorResult struct {
	Collector         string  `json:"collector"`
	GCWorkers         int     `json:"gc_workers,omitempty"`
	Steps             int     `json:"steps"`
	WallNS            int64   `json:"wall_ns"`
	WordsTraced       uint64  `json:"words_traced"`
	WordsTracedPerSec float64 `json:"words_traced_per_sec"`
	NsPerTracedWord   float64 `json:"ns_per_traced_word"`
	MarkCons          float64 `json:"mark_cons"`
	Collections       int     `json:"collections"`
}

// ParallelResult is one engine-scaling row: a wide live forest traced by a
// persistent engine at a fixed tracing-worker count. Workers == 0 is the
// sequential engine (the zero-regression control); workers >= 1 the
// parallel engine.
type ParallelResult struct {
	Engine      string  `json:"engine"`
	GCWorkers   int     `json:"gc_workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	Iterations  int     `json:"iterations,omitempty"`
	WordsPerOp  uint64  `json:"words_per_op"`
	WordsPerSec float64 `json:"words_per_sec"`
}

// TraceResult is one trace-subsystem benchmark row: the decay workload with
// recording off (baseline), with recording on (overhead), and replayed from
// a recorded trace (read-path throughput).
type TraceResult struct {
	Name         string  `json:"name"`
	WallNS       int64   `json:"wall_ns"`
	Events       uint64  `json:"events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	Words        uint64  `json:"words,omitempty"`
	WordsPerSec  float64 `json:"words_per_sec,omitempty"`
	TraceBytes   uint64  `json:"trace_bytes,omitempty"`
	// VsBaseline is this row's wall clock over the record-off baseline's
	// (1.0 = free; only meaningful for the record-on row).
	VsBaseline float64 `json:"vs_baseline,omitempty"`
}

// ReplayBenchResult is one replay-throughput row over the synthesized
// corpus: one reduced decay session recorded, amplified into an
// interleaved multi-session corpus (raw and block-compressed), then
// replayed whole, from the compressed encoding, and sharded by session.
// ReadAmplification is decoded payload bytes over bytes read from the
// wire — how much event stream each stored byte yields, so >1 means a
// compressed corpus feeds the replayer more than it costs to read.
type ReplayBenchResult struct {
	Name              string  `json:"name"`
	Shards            int     `json:"shards,omitempty"`
	WallNS            int64   `json:"wall_ns"`
	Events            uint64  `json:"events"`
	EventsPerSec      float64 `json:"events_per_sec"`
	TraceBytes        uint64  `json:"trace_bytes,omitempty"`
	StoredBytes       uint64  `json:"stored_bytes,omitempty"`
	RawBytes          uint64  `json:"raw_bytes,omitempty"`
	ReadAmplification float64 `json:"read_amplification,omitempty"`
	CompressionRatio  float64 `json:"compression_ratio,omitempty"`
	// VsRaw is the raw-corpus whole-replay events/sec over this row's:
	// 1.0 is parity, and the compressed row's acceptance bar is <= 1.5
	// (decompression may cost at most half again the raw decode rate).
	VsRaw float64 `json:"vs_raw,omitempty"`
}

// PauseResult is one pause-distribution row: a workload run under an
// incremental-capable collector, stop-the-world or incremental at a given
// slice budget, with the mutator-visible pause histogram's headline
// quantiles. Pause sizes are words of collector work per pause; an
// incremental row earns its keep when its p99 and max collapse against the
// stop-the-world row for the same (workload, collector) while WallNS stays
// comparable.
type PauseResult struct {
	Workload        string `json:"workload"`
	Collector       string `json:"collector"`
	Incremental     bool   `json:"incremental"`
	SliceBudget     int    `json:"slice_budget,omitempty"`
	AllocWords      uint64 `json:"alloc_words"`
	GCWorkWords     uint64 `json:"gc_work_words"`
	Collections     int    `json:"collections"`
	Pauses          uint64 `json:"pauses"`
	PauseP50Words   uint64 `json:"pause_p50_words"`
	PauseP99Words   uint64 `json:"pause_p99_words"`
	MaxPauseWords   uint64 `json:"max_pause_words"`
	TotalPauseWords uint64 `json:"total_pause_words"`
	WallNS          int64  `json:"wall_ns"`
	Error           string `json:"error,omitempty"`
}

// TenureResult is one cell of the fixed-vs-adaptive tenuring grid: the
// generational collector runs the workload at a pinned promotion threshold
// or under the adaptive policy controller (DESIGN.md "Tenuring & adaptive
// policy"), and the cell records the copy-work decomposition the policy is
// supposed to minimize. WordsCopied is the figure of merit — all copying,
// minor and major; WordsTenured the survivor words the nursery re-copied
// to keep young; WordsPromoted what crossed into the old generation.
type TenureResult struct {
	Workload         string `json:"workload"`
	Policy           string `json:"policy"` // fixed threshold ("1".."15") or "adaptive"
	AllocWords       uint64 `json:"alloc_words"`
	WordsCopied      uint64 `json:"words_copied"`
	WordsPromoted    uint64 `json:"words_promoted"`
	WordsTenured     uint64 `json:"words_tenured"`
	Collections      int    `json:"collections"`
	MajorCollections int    `json:"major_collections"`
	// FinalThreshold is the promotion threshold in force at the end of the
	// run (for adaptive rows, where it ended up; heap.TenureNever reports
	// as -1 to keep the JSON readable).
	FinalThreshold int    `json:"final_threshold"`
	Adaptations    int    `json:"adaptations,omitempty"`
	WallNS         int64  `json:"wall_ns"`
	Error          string `json:"error,omitempty"`
}

// ServeResult is one cell of the server-simulation grid (internal/serve):
// the sharded multi-tenant load served by one collector configuration, with
// request-latency tail quantiles as the headline metric. Latency is in
// ticks of the simulation's words-per-tick clock, so every field except
// WallNS is deterministic — a changed tail between two reports is a policy
// change, not noise.
type ServeResult struct {
	Collector       string  `json:"collector"`
	Shards          int     `json:"shards"`
	GCWorkers       int     `json:"gc_workers"`
	Incremental     bool    `json:"incremental,omitempty"`
	Adaptive        bool    `json:"adaptive,omitempty"`
	Sessions        uint64  `json:"sessions"`
	Requests        uint64  `json:"requests"`
	ReqsPerKilotick float64 `json:"reqs_per_kilotick"`
	AllocWords      uint64  `json:"alloc_words"`
	GCPauseWords    uint64  `json:"gc_pause_words"`
	Collections     int     `json:"collections"`
	LatencyP50      uint64  `json:"latency_p50_ticks"`
	LatencyP99      uint64  `json:"latency_p99_ticks"`
	LatencyP999     uint64  `json:"latency_p999_ticks"`
	LatencyMax      uint64  `json:"latency_max_ticks"`
	FootprintWords  int     `json:"footprint_words"`
	MakespanTicks   uint64  `json:"makespan_ticks"`
	WallNS          int64   `json:"wall_ns"`
	Error           string  `json:"error,omitempty"`
}

// key names the cell for cross-report matching: every axis of the grid.
func (r ServeResult) key() string {
	return fmt.Sprintf("%s/s%d/w%d/i%s/a%s", r.Collector, r.Shards, r.GCWorkers,
		boolDigit(r.Incremental), boolDigit(r.Adaptive))
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Report is one full measurement run. GoMaxProcs and NumCPU record what the
// measurement had to work with: parallel speedups are only meaningful when
// the schedulable cores cover the worker count (a 1-CPU container measures
// coordination overhead, not scaling), and a GOMAXPROCS below NumCPU says
// the run was deliberately constrained.
type Report struct {
	Schema     string              `json:"schema"`
	GoVersion  string              `json:"go_version"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	NumCPU     int                 `json:"num_cpu"`
	Engines    []EngineResult      `json:"engines"`
	Parallel   []ParallelResult    `json:"parallel,omitempty"`
	Collectors []CollectorResult   `json:"collectors"`
	Tenuring   []TenureResult      `json:"tenuring,omitempty"`
	Pauses     []PauseResult       `json:"pauses,omitempty"`
	Traces     []TraceResult       `json:"traces,omitempty"`
	Replay     []ReplayBenchResult `json:"replay_throughput,omitempty"`
	Serve      []ServeResult       `json:"serve,omitempty"`
}

// Comparison is the checked-in before/after shape.
type Comparison struct {
	Schema  string             `json:"schema"`
	Before  *Report            `json:"before,omitempty"`
	After   *Report            `json:"after"`
	Speedup map[string]float64 `json:"speedup,omitempty"`
}

const (
	chainPairs    = 8000
	workloadSteps = 200000
)

// buildChain hand-allocates a chain of pairs in s (car = fixnum, cdr =
// previous pair) and returns the head pointer word — the same graph the
// internal/heap steady-state benchmarks trace.
func buildChain(h *heap.Heap, s *heap.Space, n int) heap.Word {
	prev := heap.NullWord
	for i := 0; i < n; i++ {
		off, ok := s.Bump(3)
		if !ok {
			panic("benchreport: chain arena too small")
		}
		w := h.InitObject(s, off, heap.TPair, 2)
		s.Mem[off+1] = heap.FixnumWord(int64(i))
		s.Mem[off+2] = prev
		prev = w
	}
	return prev
}

// bestOf runs a benchmark rounds times and keeps the fastest result: the
// minimum is the standard low-noise estimator on shared machines, where
// interference only ever slows a run down.
func bestOf(rounds int, f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < rounds; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// engineBenchmarks measures the two tracing inner loops in isolation: the
// Cheney evacuate+drain flip and the mark drain, each over a live chain of
// chainPairs pairs (3 words per object), best of three runs.
func engineBenchmarks() []EngineResult {
	words := uint64(3 * chainPairs)

	evac := bestOf(3, func(b *testing.B) {
		h := heap.New()
		from := h.NewSpace("flip-A", 1<<16)
		to := h.NewSpace("flip-B", 1<<16)
		h.GlobalWord(buildChain(h, from, chainPairs))
		e := heap.NewEvacuator(h, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.SetFrom(from)
			e.Begin(to)
			e.Run()
			from.Reset()
			from, to = to, from
		}
	})

	mark := bestOf(3, func(b *testing.B) {
		h := heap.New()
		s := h.NewSpace("mark-arena", 1<<16)
		h.GlobalWord(buildChain(h, s, chainPairs))
		m := heap.NewMarker(h, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Begin()
			m.Run()
			heap.ClearMarks(s)
		}
	})

	mk := func(name string, r testing.BenchmarkResult) EngineResult {
		ns := float64(r.NsPerOp())
		return EngineResult{
			Name:        name,
			NsPerOp:     ns,
			Iterations:  r.N,
			WordsPerOp:  words,
			WordsPerSec: float64(words) / ns * 1e9,
		}
	}
	return []EngineResult{mk("evacuate-drain", evac), mk("mark-drain", mark)}
}

// Parallel forest shape: forestChains independently rooted chains of
// forestLen pairs give the work-distribution machinery real breadth, and
// the whole graph (~221k words) is the "large heap" the scaling criterion
// names.
const (
	forestChains = 256
	forestLen    = 96
)

// buildForest roots forestChains chains in s and returns the word count.
func buildForest(h *heap.Heap, s *heap.Space) uint64 {
	for c := 0; c < forestChains; c++ {
		h.GlobalWord(buildChain(h, s, forestLen))
	}
	return uint64(3 * forestChains * forestLen)
}

// parallelBenchmarks measures the tracing engines over the wide forest at
// each worker count. Workers == 0 runs the sequential engines on the same
// graph — the control row proving the default path did not regress.
func parallelBenchmarks(workerCounts []int) []ParallelResult {
	var out []ParallelResult
	for _, workers := range workerCounts {
		workers := workers
		words := uint64(3 * forestChains * forestLen)

		mark := bestOf(3, func(b *testing.B) {
			h := heap.New()
			s := h.NewSpace("forest", 1<<18)
			buildForest(h, s)
			h.SetGCWorkers(workers)
			m := heap.NewMarker(h, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Begin()
				m.Run()
				heap.ClearMarks(s)
			}
		})
		evac := bestOf(3, func(b *testing.B) {
			h := heap.New()
			from := h.NewSpace("forest-A", 1<<18)
			to := h.NewSpace("forest-B", 1<<18)
			buildForest(h, from)
			h.SetGCWorkers(workers)
			e := heap.NewEvacuator(h, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetFrom(from)
				e.Begin(to)
				e.Run()
				from.Reset()
				from, to = to, from
			}
		})

		mk := func(engine string, r testing.BenchmarkResult) ParallelResult {
			ns := float64(r.NsPerOp())
			return ParallelResult{
				Engine:      engine,
				GCWorkers:   workers,
				NsPerOp:     ns,
				Iterations:  r.N,
				WordsPerOp:  words,
				WordsPerSec: float64(words) / ns * 1e9,
			}
		}
		out = append(out, mk("mark", mark), mk("evacuate", evac))
	}
	return out
}

// sweepArenaWords sizes the parallel-sweep fixture: a half-megaword blocked
// space (512 blocks) filled with 4-word objects, every other object marked,
// so each op sweeps the whole space with a realistic survivor density.
const sweepArenaWords = 1 << 18

// sweepBenchmarks measures the block-claiming sweep engine at each worker
// count: words-swept/sec over the blocked fixture. Workers == 0 is the
// sequential control; because sweepBlock is a pure per-block function, every
// row does bit-identical work.
func sweepBenchmarks(workerCounts []int) []ParallelResult {
	var out []ParallelResult
	for _, workers := range workerCounts {
		workers := workers
		r := bestOf(3, func(b *testing.B) {
			h := heap.New()
			s := h.NewBlockedSpace("sweep-arena", sweepArenaWords)
			var offs []int
			for blk := 0; blk < s.NumBlocks(); blk++ {
				for {
					off, ok := s.AllocFromBlock(blk, 4)
					if !ok {
						break
					}
					s.Mem[off] = heap.HeaderWord(heap.TVector, 3)
					offs = append(offs, off)
				}
			}
			h.SetGCWorkers(workers)
			sw := heap.NewSweeper(h)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < len(offs); j += 2 {
					s.SetMarkAt(offs[j])
				}
				sw.Sweep(s)
			}
		})
		ns := float64(r.NsPerOp())
		out = append(out, ParallelResult{
			Engine:      "sweep",
			GCWorkers:   workers,
			NsPerOp:     ns,
			Iterations:  r.N,
			WordsPerOp:  sweepArenaWords,
			WordsPerSec: float64(sweepArenaWords) / ns * 1e9,
		})
	}
	return out
}

// markBitBenchmarks compares the two mark representations on the same
// object set: the side bitmap (a bit probe per test, a per-block memclr to
// unmark) against the historical header bits (a header rewrite per mark and
// per unmark). Each op is one full mark-test-clear cycle over every object.
func markBitBenchmarks() []EngineResult {
	const objWords = 4
	mkFixture := func() (*heap.Heap, *heap.Space, []int) {
		h := heap.New()
		s := h.NewBlockedSpace("markbits", 1<<16)
		var offs []int
		for blk := 0; blk < s.NumBlocks(); blk++ {
			for {
				off, ok := s.AllocFromBlock(blk, objWords)
				if !ok {
					break
				}
				s.Mem[off] = heap.HeaderWord(heap.TVector, objWords-1)
				offs = append(offs, off)
			}
		}
		return h, s, offs
	}
	_, s0, offs0 := mkFixture()
	words := uint64(len(offs0))

	bitmap := bestOf(3, func(b *testing.B) {
		s, offs := s0, offs0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			live := 0
			for _, off := range offs {
				if !s.MarkedAt(off) {
					s.SetMarkAt(off)
					live++
				}
			}
			heap.ClearMarks(s)
			if live != len(offs) {
				b.Fatal("bitmap marks did not clear")
			}
		}
	})
	header := bestOf(3, func(b *testing.B) {
		s, offs := s0, offs0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			live := 0
			for _, off := range offs {
				if !heap.Marked(s.Mem[off]) {
					s.Mem[off] = heap.SetMark(s.Mem[off])
					live++
				}
			}
			for _, off := range offs {
				s.Mem[off] = heap.ClearMark(s.Mem[off])
			}
			if live != len(offs) {
				b.Fatal("header marks did not clear")
			}
		}
	})

	mk := func(name string, r testing.BenchmarkResult) EngineResult {
		ns := float64(r.NsPerOp())
		return EngineResult{
			Name:        name,
			NsPerOp:     ns,
			Iterations:  r.N,
			WordsPerOp:  words, // objects tested+marked+cleared per op
			WordsPerSec: float64(words) / ns * 1e9,
		}
	}
	return []EngineResult{mk("mark-bits-bitmap", bitmap), mk("mark-bits-header", header)}
}

// collectorGrid times every collector tracing the decay workload, sized as
// internal/experiments sizes them (h=768, L=3.5, g=0.25, k=16), with the
// heap configured for gcWorkers tracing workers (0 = sequential engines).
func collectorGrid(gcWorkers int) []CollectorResult {
	cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, K: 16, Steps: workloadSteps}
	total := cfg.HeapWords()
	nursery := total / 8

	ctors := []struct {
		name string
		mk   func(h *heap.Heap) heap.Collector
	}{
		{"semispace", func(h *heap.Heap) heap.Collector { return semispace.New(h, total) }},
		{"marksweep", func(h *heap.Heap) heap.Collector { return marksweep.New(h, total) }},
		{"generational", func(h *heap.Heap) heap.Collector {
			return generational.New(h, nursery, total-nursery)
		}},
		{"multigen", func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{total / 8, total / 4, total - total/8 - total/4})
		}},
		{"nonpredictive", func(h *heap.Heap) heap.Collector {
			return core.New(h, 16, total/16, core.WithPolicy(core.FractionJ(0.25)))
		}},
		{"npms", func(h *heap.Heap) heap.Collector {
			return npms.New(h, 16, total/16+total/64)
		}},
		{"hybrid", func(h *heap.Heap) heap.Collector {
			step := (total - nursery) / 8
			return hybrid.New(h, nursery, 8, step, hybrid.WithGrowth())
		}},
	}

	var out []CollectorResult
	for _, ct := range ctors {
		var best CollectorResult
		// Best of three, like the engine benchmarks: the workload is
		// deterministic, so the fastest wall clock is the least-disturbed
		// measurement of the same work.
		for round := 0; round < 3; round++ {
			h := heap.New()
			h.SetGCWorkers(gcWorkers)
			c := ct.mk(h)
			w := decay.NewWorkload(h, 768, 1)
			w.Warmup(10)
			g0 := *c.GCStats()
			start := time.Now()
			w.Run(workloadSteps)
			wall := time.Since(start)
			g1 := c.GCStats()
			traced := (g1.WordsCopied - g0.WordsCopied) + (g1.WordsMarked - g0.WordsMarked)
			r := CollectorResult{
				Collector:   ct.name,
				GCWorkers:   gcWorkers,
				Steps:       workloadSteps,
				WallNS:      wall.Nanoseconds(),
				WordsTraced: traced,
				Collections: g1.Collections - g0.Collections,
				MarkCons:    float64(traced) / float64(h.Stats.WordsAllocated),
			}
			if traced > 0 && wall > 0 {
				r.WordsTracedPerSec = float64(traced) / wall.Seconds()
				r.NsPerTracedWord = float64(wall.Nanoseconds()) / float64(traced)
			}
			if round == 0 || r.WallNS < best.WallNS {
				best = r
			}
		}
		out = append(out, best)
	}
	return out
}

// tenurePolicies is the policy axis of the tenuring grid: the fixed
// thresholds the aquario exemplars use plus the adaptive controller.
var tenurePolicies = []struct {
	name      string
	threshold int
	adaptive  bool
}{
	{"1", 1, false},
	{"2", 2, false},
	{"6", 6, false},
	{"15", 15, false},
	{"adaptive", 0, true},
}

// tenureCell runs one (workload, policy) cell: a fresh heap with the
// tenuring knobs pinned, a generational collector built by mk, and the
// workload body, returning the copy-work decomposition.
func tenureCell(workload, policy string, threshold int, adaptive bool,
	mk func(h *heap.Heap) *multigen.Collector, body func(h *heap.Heap) error) TenureResult {
	h := heap.New()
	h.SetGCTenure(threshold)
	h.SetGCAdaptive(adaptive)
	c := mk(h)
	start := time.Now()
	err := body(h)
	wall := time.Since(start)
	g := c.GCStats()
	r := TenureResult{
		Workload:         workload,
		Policy:           policy,
		AllocWords:       h.Stats.WordsAllocated,
		WordsCopied:      g.WordsCopied,
		WordsPromoted:    g.WordsPromoted,
		WordsTenured:     g.WordsTenured,
		Collections:      g.Collections,
		MajorCollections: g.MajorCollections,
		FinalThreshold:   g.TenureThreshold,
		Adaptations:      g.PolicyAdaptations,
		WallNS:           wall.Nanoseconds(),
	}
	if r.FinalThreshold >= heap.TenureNever {
		r.FinalThreshold = -1 // never promote
	}
	if err != nil {
		r.Error = err.Error()
	}
	return r
}

// tenureBenchmarks runs the fixed-vs-adaptive tenuring grid: the
// generational collector over two decay workloads (short and long
// half-life) and the registry workloads whose lifetimes are *not*
// radioactive (boyer, dyninfer, nucleic), at each fixed threshold and
// under the adaptive controller. The interesting read: under decay, bigger
// thresholds win and adaptive should chase them; under the registry
// programs a finite threshold wins and adaptive must find it without
// giving back more than a sliver over the best fixed setting.
func tenureBenchmarks() []TenureResult {
	var out []TenureResult

	for _, halfLife := range []int{192, 768} {
		cfg := experiments.DecayConfig{HalfLife: float64(halfLife), L: 3.5, G: 0.25, K: 16, Steps: workloadSteps}
		total := cfg.HeapWords()
		nursery := total / 8
		workload := fmt.Sprintf("decay-%d", halfLife)
		for _, p := range tenurePolicies {
			out = append(out, tenureCell(workload, p.name, p.threshold, p.adaptive,
				func(h *heap.Heap) *multigen.Collector {
					return generational.New(h, nursery, total-nursery, multigen.WithExpansion(2))
				},
				func(h *heap.Heap) error {
					w := decay.NewWorkload(h, float64(halfLife), 1)
					w.Warmup(10)
					w.Run(workloadSteps)
					return nil
				}))
		}
	}

	// The registry cells size the old area at a quarter of the program's
	// heap budget (with expansion as the safety valve) so major collections
	// are a real cost promotion has to answer for, not free headroom: boyer
	// and nucleic survivors are effectively immortal, so wholesale promotion
	// wins and retention only re-copies them; dyninfer (at 40 iterations,
	// with the nursery sized to one iteration's constraint graph) is the
	// anti-generational shape — survivors of one minor die before a second,
	// so any finite patience keeps the old area clean and never-promote
	// strictly beats wholesale.
	type cell struct {
		prog         bench.Program
		nursery, old int
	}
	var registry []cell
	for _, p := range bench.Standard() {
		switch p.Name() {
		case "nboyer2":
			registry = append(registry, cell{p, p.HeapWords() / 32, p.HeapWords() / 4})
		case "nucleic2":
			registry = append(registry, cell{p, p.HeapWords() / 16, p.HeapWords() / 4})
		}
	}
	registry = append(registry, cell{dyninfer.New(40), 4096, 8192})

	for _, r := range registry {
		prog, nursery, old := r.prog, r.nursery, r.old
		for _, p := range tenurePolicies {
			out = append(out, tenureCell(prog.Name(), p.name, p.threshold, p.adaptive,
				func(h *heap.Heap) *multigen.Collector {
					return generational.New(h, nursery, old, multigen.WithExpansion(2))
				},
				prog.Run))
		}
	}
	return out
}

// pauseModes is the collection-mode grid every pause workload runs under:
// the stop-the-world baseline and incremental at a quarter, one, and four
// times the default slice budget — enough to see how the pause ceiling and
// the throughput cost move with the budget.
var pauseModes = []struct {
	incremental bool
	slice       int
}{
	{false, 0},
	{true, heap.DefaultSliceBudget / 4},
	{true, heap.DefaultSliceBudget},
	{true, heap.DefaultSliceBudget * 4},
}

// pauseRow converts a measurement into its report row.
func pauseRow(r experiments.PauseRun) PauseResult {
	row := PauseResult{
		Workload:        r.Workload,
		Collector:       r.Collector,
		Incremental:     r.Incremental,
		SliceBudget:     r.SliceBudget,
		AllocWords:      r.AllocWords,
		GCWorkWords:     r.GCWorkWords,
		Collections:     r.Collections,
		Pauses:          r.Pauses,
		PauseP50Words:   r.PauseP50Words,
		PauseP99Words:   r.PauseP99Words,
		MaxPauseWords:   r.MaxPauseWords,
		TotalPauseWords: r.TotalPauseWords,
		WallNS:          r.WallNS,
	}
	if r.Err != nil {
		row.Error = r.Err.Error()
	}
	return row
}

// pauseBenchmarks measures the pause distributions behind the incremental
// collection mode: the decay workload plus two registry benchmarks with
// non-trivial live sets, each under both mark/sweep collectors in every
// pause mode. Rows are single runs — pause sizes are in deterministic words
// of collector work, so only WallNS carries measurement noise.
func pauseBenchmarks() []PauseResult {
	var out []PauseResult
	for _, col := range []string{"marksweep", "npms"} {
		for _, m := range pauseModes {
			out = append(out, pauseRow(experiments.RunDecayPauses(col, workloadSteps, m.incremental, m.slice)))
		}
	}
	for _, name := range []string{"nbody-24", "nucleic2"} {
		prog, err := bench.ByName(name, false)
		if err != nil {
			out = append(out, PauseResult{Workload: name, Error: err.Error()})
			continue
		}
		for _, col := range []string{"marksweep", "npms"} {
			for _, m := range pauseModes {
				out = append(out, pauseRow(experiments.RunBenchPauses(prog, col, m.incremental, m.slice)))
			}
		}
	}
	return out
}

// serveModes is the collector-configuration axis of the server-simulation
// grid: every collector in its stop-the-world/fixed-tenure default, plus
// the knob each family actually supports — incremental marking for the
// mark/sweep collectors, adaptive tenuring for the generational family.
var serveModes = []struct {
	collector   string
	incremental bool
	adaptive    bool
}{
	{"semispace", false, false},
	{"marksweep", false, false},
	{"marksweep", true, false},
	{"npms", false, false},
	{"npms", true, false},
	{"generational", false, false},
	{"generational", false, true},
	{"multigen", false, false},
	{"multigen", false, true},
}

// Server-simulation sizing: a per-shard heap big enough that collections
// are occasional-but-heavy (the regime where pause policy decides the
// tail) and a clock fast enough that the server is not saturated — at high
// utilization the tail measures queue backlog, i.e. total GC work, and
// slicing pauses cannot help; at moderate utilization it measures pause
// quanta, which is the effect the grid exists to expose.
const (
	serveHorizon      = 60000
	serveHeapWords    = 1 << 16
	serveWordsPerTick = 256
)

// serveCell runs one grid cell. Everything but WallNS is deterministic
// (seeded load, words-as-time clock), so the cell runs once, not best-of-3.
func serveCell(collector string, shards, gcWorkers int, incremental, adaptive bool) ServeResult {
	row := ServeResult{
		Collector:   collector,
		Shards:      shards,
		GCWorkers:   gcWorkers,
		Incremental: incremental,
		Adaptive:    adaptive,
	}
	start := time.Now()
	res, err := serve.Run(serve.Config{
		Load:         serve.LoadConfig{Seed: 1, HorizonTicks: serveHorizon},
		Collector:    collector,
		Shards:       shards,
		HeapWords:    serveHeapWords,
		WordsPerTick: serveWordsPerTick,
		GCWorkers:    gcWorkers,
		Incremental:  incremental,
		Adaptive:     adaptive,
	})
	row.WallNS = time.Since(start).Nanoseconds()
	if err != nil {
		row.Error = err.Error()
		return row
	}
	a := res.Agg
	row.Sessions = a.Sessions
	row.Requests = a.Requests
	row.ReqsPerKilotick = a.RequestsPerKilotick()
	row.AllocWords = a.WordsAlloc
	row.GCPauseWords = a.WordsPause
	row.Collections = a.Collections
	row.LatencyP50 = a.Latency.P50()
	row.LatencyP99 = a.Latency.P99()
	row.LatencyP999 = a.Latency.P999()
	row.LatencyMax = a.Latency.MaxWords
	row.FootprintWords = a.Footprint
	row.MakespanTicks = a.Makespan
	return row
}

// serveBenchmarks runs the server-simulation grid: every mode at shard
// counts 1/4/16 with sequential per-shard collection, plus a parallel-
// tracing column (gcworkers=4) at the middle shard count. The offered load
// is global, so higher shard counts spread the same sessions thinner.
func serveBenchmarks() []ServeResult {
	var out []ServeResult
	for _, m := range serveModes {
		for _, shards := range []int{1, 4, 16} {
			out = append(out, serveCell(m.collector, shards, 1, m.incremental, m.adaptive))
		}
		out = append(out, serveCell(m.collector, 4, 4, m.incremental, m.adaptive))
	}
	return out
}

// countWriter counts bytes so recording overhead excludes any real sink.
type countWriter struct{ n uint64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += uint64(len(p))
	return len(p), nil
}

// traceBenchmarks measures the trace subsystem on the decay workload, best
// of three like everything else: record-off baseline, record-on overhead
// (into a counting discard writer), and replay throughput from memory.
func traceBenchmarks() []TraceResult {
	cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, K: 16, Steps: workloadSteps}
	total := cfg.HeapWords()

	runDecay := func(h *heap.Heap) time.Duration {
		w := decay.NewWorkload(h, 768, 1)
		start := time.Now()
		w.Warmup(10)
		w.Run(workloadSteps)
		return time.Since(start)
	}

	var off TraceResult
	for round := 0; round < 3; round++ {
		h := heap.New()
		semispace.New(h, total)
		wall := runDecay(h)
		if round == 0 || wall.Nanoseconds() < off.WallNS {
			off = TraceResult{
				Name:        "decay-record-off",
				WallNS:      wall.Nanoseconds(),
				Words:       h.Stats.WordsAllocated,
				WordsPerSec: float64(h.Stats.WordsAllocated) / wall.Seconds(),
			}
		}
	}

	var on TraceResult
	for round := 0; round < 3; round++ {
		h := heap.New()
		semispace.New(h, total)
		var cw countWriter
		tw, err := trace.NewWriter(&cw, trace.Header{Meta: []trace.MetaEntry{{Key: "workload", Value: "decay-768"}}})
		if err != nil {
			panic(err)
		}
		rec, err := trace.NewRecorder(h, tw)
		if err != nil {
			panic(err)
		}
		wall := runDecay(h)
		if err := rec.Finish(); err != nil {
			panic(err)
		}
		if round == 0 || wall.Nanoseconds() < on.WallNS {
			on = TraceResult{
				Name:         "decay-record-on",
				WallNS:       wall.Nanoseconds(),
				Events:       tw.Events(),
				EventsPerSec: float64(tw.Events()) / wall.Seconds(),
				Words:        h.Stats.WordsAllocated,
				WordsPerSec:  float64(h.Stats.WordsAllocated) / wall.Seconds(),
				TraceBytes:   cw.n,
				VsBaseline:   float64(wall.Nanoseconds()) / float64(off.WallNS),
			}
		}
	}

	// One untimed recording into memory feeds the replay rounds.
	var buf bytes.Buffer
	{
		h := heap.New()
		semispace.New(h, total)
		tw, err := trace.NewWriter(&buf, trace.Header{})
		if err != nil {
			panic(err)
		}
		rec, err := trace.NewRecorder(h, tw)
		if err != nil {
			panic(err)
		}
		runDecay(h)
		if err := rec.Finish(); err != nil {
			panic(err)
		}
	}
	raw := buf.Bytes()

	var rp TraceResult
	for round := 0; round < 3; round++ {
		rd, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			panic(err)
		}
		h := heap.New()
		c := semispace.New(h, total)
		start := time.Now()
		res, err := trace.Replay(rd, h, c, trace.ReplayOptions{})
		wall := time.Since(start)
		if err != nil {
			panic(err)
		}
		if round == 0 || wall.Nanoseconds() < rp.WallNS {
			rp = TraceResult{
				Name:         "decay-replay-semispace",
				WallNS:       wall.Nanoseconds(),
				Events:       res.Events,
				EventsPerSec: float64(res.Events) / wall.Seconds(),
				Words:        res.Stats.WordsAllocated,
				WordsPerSec:  float64(res.Stats.WordsAllocated) / wall.Seconds(),
				TraceBytes:   uint64(len(raw)),
			}
		}
	}
	return []TraceResult{off, on, rp}
}

// The synthesized replay corpus: one decay session at reduced steps,
// amplified into corpusSessions interleaved sessions. Small enough to
// synthesize in-memory per report, large enough that replay throughput
// is decode-bound rather than setup-bound.
const (
	corpusSteps    = 20000
	corpusSessions = 64
)

// synthCorpus records the base session and amplifies it raw and
// compressed, timing the synthesis ops (best of three). Returns both
// corpora, the merged heap size the replay rows should use, and the two
// synth-op cost rows.
func synthCorpus() (raw, comp []byte, total int, rows []ReplayBenchResult) {
	cfg := experiments.DecayConfig{HalfLife: 768, L: 3.5, G: 0.25, K: 16, Steps: corpusSteps}
	sessionWords := cfg.HeapWords()
	total = sessionWords * corpusSessions

	var base bytes.Buffer
	{
		h := heap.New()
		semispace.New(h, sessionWords)
		tw, err := trace.NewWriter(&base, trace.Header{Meta: []trace.MetaEntry{
			{Key: "workload", Value: "decay-768"},
			{Key: "heap_words", Value: strconv.Itoa(sessionWords)},
		}})
		if err != nil {
			panic(err)
		}
		rec, err := trace.NewRecorder(h, tw)
		if err != nil {
			panic(err)
		}
		w := decay.NewWorkload(h, 768, 1)
		w.Warmup(10)
		w.Run(corpusSteps)
		if err := rec.Finish(); err != nil {
			panic(err)
		}
	}

	amplify := func(name string, compress bool) ([]byte, ReplayBenchResult) {
		var out []byte
		var row ReplayBenchResult
		for round := 0; round < 3; round++ {
			var buf bytes.Buffer
			opt := trace.SynthOptions{Seed: 7, Compress: compress}
			start := time.Now()
			tr, err := trace.Amplify(&buf, base.Bytes(), corpusSessions, opt)
			wall := time.Since(start)
			if err != nil {
				panic(err)
			}
			if round == 0 || wall.Nanoseconds() < row.WallNS {
				out = buf.Bytes()
				row = ReplayBenchResult{
					Name:         name,
					WallNS:       wall.Nanoseconds(),
					Events:       tr.Events,
					EventsPerSec: float64(tr.Events) / wall.Seconds(),
					TraceBytes:   uint64(buf.Len()),
				}
			}
		}
		return out, row
	}
	var rawRow, compRow ReplayBenchResult
	raw, rawRow = amplify("synth-amplify", false)
	comp, compRow = amplify("synth-amplify-compressed", true)
	compRow.CompressionRatio = float64(len(raw)) / float64(len(comp))
	return raw, comp, total, []ReplayBenchResult{rawRow, compRow}
}

// replayThroughputBenchmarks is the rdgc-bench/8 section: synth-op cost,
// whole-corpus replay raw vs compressed, and the sharded driver at 1, 4,
// and 16 shards, all best of three.
func replayThroughputBenchmarks() []ReplayBenchResult {
	raw, comp, total, rows := synthCorpus()

	replayRow := func(name string, data []byte) ReplayBenchResult {
		var row ReplayBenchResult
		for round := 0; round < 3; round++ {
			rd, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				panic(err)
			}
			h := heap.New()
			c := semispace.New(h, total)
			start := time.Now()
			res, err := trace.Replay(rd, h, c, trace.ReplayOptions{})
			wall := time.Since(start)
			if err != nil {
				panic(err)
			}
			if round == 0 || wall.Nanoseconds() < row.WallNS {
				stored, rawBytes := rd.StoredBytes(), rd.RawBytes()
				row = ReplayBenchResult{
					Name:              name,
					WallNS:            wall.Nanoseconds(),
					Events:            res.Events,
					EventsPerSec:      float64(res.Events) / wall.Seconds(),
					TraceBytes:        uint64(len(data)),
					StoredBytes:       stored,
					RawBytes:          rawBytes,
					ReadAmplification: float64(rawBytes) / float64(stored),
				}
			}
		}
		return row
	}

	rawReplay := replayRow("replay-raw", raw)
	compReplay := replayRow("replay-compressed", comp)
	compReplay.CompressionRatio = float64(len(raw)) / float64(len(comp))
	compReplay.VsRaw = rawReplay.EventsPerSec / compReplay.EventsPerSec
	rows = append(rows, rawReplay, compReplay)

	for _, n := range []int{1, 4, 16} {
		row := shardedReplayRow(raw, total, n)
		row.VsRaw = rawReplay.EventsPerSec / row.EventsPerSec
		rows = append(rows, row)
	}
	return rows
}

// shardedReplayRow splits the corpus into n per-session shards once,
// then times replaying all shards on the worker pool (best of three).
// Only the replay is on the clock — the demux is synthesis-side work
// already priced by the synth-op rows.
func shardedReplayRow(corpus []byte, total, n int) ReplayBenchResult {
	rd, err := trace.NewReader(bytes.NewReader(corpus))
	if err != nil {
		panic(err)
	}
	shards, err := trace.Shard(rd, n, trace.SynthOptions{})
	if err != nil {
		panic(err)
	}
	shardWords := total / len(shards)
	specs := make([]runner.Spec[trace.ReplayResult], len(shards))
	for i, data := range shards {
		data := data
		specs[i] = runner.Spec[trace.ReplayResult]{
			Name: fmt.Sprintf("shard%d", i),
			Run: func() (trace.ReplayResult, error) {
				srd, err := trace.NewReader(bytes.NewReader(data))
				if err != nil {
					return trace.ReplayResult{}, err
				}
				h := heap.New()
				c := semispace.New(h, shardWords)
				return trace.Replay(srd, h, c, trace.ReplayOptions{})
			},
			Words: func(v trace.ReplayResult) uint64 { return v.Stats.WordsAllocated },
		}
	}

	var row ReplayBenchResult
	for round := 0; round < 3; round++ {
		start := time.Now()
		results := runner.Run(specs, runner.Options{})
		wall := time.Since(start)
		var events uint64
		for _, r := range results {
			if r.Err != nil {
				panic(r.Err)
			}
			events += r.Value.Events
		}
		if round == 0 || wall.Nanoseconds() < row.WallNS {
			row = ReplayBenchResult{
				Name:         "replay-sharded",
				Shards:       n,
				WallNS:       wall.Nanoseconds(),
				Events:       events,
				EventsPerSec: float64(events) / wall.Seconds(),
				TraceBytes:   uint64(len(corpus)),
			}
		}
	}
	return row
}

func run() *Report {
	collectors := collectorGrid(0)
	for _, w := range []int{1, 2, 4, 8} {
		collectors = append(collectors, collectorGrid(w)...)
	}
	parallel := parallelBenchmarks([]int{0, 1, 2, 4, 8})
	parallel = append(parallel, sweepBenchmarks([]int{0, 1, 2, 4, 8})...)
	return &Report{
		Schema:     "rdgc-bench/8",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Engines:    append(engineBenchmarks(), markBitBenchmarks()...),
		Parallel:   parallel,
		Collectors: collectors,
		Tenuring:   tenureBenchmarks(),
		Pauses:     pauseBenchmarks(),
		Traces:     traceBenchmarks(),
		Replay:     replayThroughputBenchmarks(),
		Serve:      serveBenchmarks(),
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// speedups maps each engine benchmark (and collector row) to
// before-time / after-time, so >1 means the hot path got faster.
func speedups(before, after *Report) map[string]float64 {
	out := make(map[string]float64)
	for _, b := range before.Engines {
		for _, a := range after.Engines {
			if a.Name == b.Name && a.NsPerOp > 0 {
				out["engine/"+a.Name] = b.NsPerOp / a.NsPerOp
			}
		}
	}
	for _, b := range before.Collectors {
		if b.GCWorkers != 0 {
			continue // compare the sequential-default rows across reports
		}
		for _, a := range after.Collectors {
			if a.GCWorkers == 0 && a.Collector == b.Collector && a.NsPerTracedWord > 0 && b.NsPerTracedWord > 0 {
				out["collector/"+a.Collector] = b.NsPerTracedWord / a.NsPerTracedWord
			}
		}
	}
	for _, b := range before.Traces {
		for _, a := range after.Traces {
			if a.Name == b.Name && a.WallNS > 0 && b.WallNS > 0 {
				out["trace/"+a.Name] = float64(b.WallNS) / float64(a.WallNS)
			}
		}
	}
	for _, b := range before.Replay {
		for _, a := range after.Replay {
			if a.Name == b.Name && a.Shards == b.Shards && a.WallNS > 0 && b.WallNS > 0 {
				key := "replay/" + a.Name
				if a.Shards > 0 {
					key = fmt.Sprintf("replay/%s/%d", a.Name, a.Shards)
				}
				out[key] = float64(b.WallNS) / float64(a.WallNS)
			}
		}
	}
	return out
}

// loadReport reads a BENCH_*.json file that is either a bare Report or a
// before/after Comparison; the "after" run of a comparison is the
// measurement it carries.
func loadReport(path string) (*Report, error) {
	var c Comparison
	if err := readJSON(path, &c); err != nil {
		return nil, err
	}
	if c.After != nil {
		return c.After, nil
	}
	var r Report
	if err := readJSON(path, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// compare prints the metric deltas between two BENCH_*.json files.
func compare(pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return fmt.Errorf("%s: %w", pathA, err)
	}
	b, err := loadReport(pathB)
	if err != nil {
		return fmt.Errorf("%s: %w", pathB, err)
	}
	fmt.Printf("bench-compare: %s -> %s (speedup >1 means %s is faster)\n", pathA, pathB, pathB)
	sp := speedups(a, b)
	names := make([]string, 0, len(sp))
	for name := range sp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %.2fx\n", name, sp[name])
	}
	if note := driftNote(sp); note != "" {
		fmt.Println(note)
	}
	compareServe(a, b)
	return nil
}

// serveTailTolerance is the relative worsening a serve tail quantile may
// show before the comparison flags it. Serve latencies are deterministic
// ticks, not wall time, so this headroom absorbs intentional small policy
// shifts and log2 bucket boundaries — not machine noise, of which these
// rows have none.
const serveTailTolerance = 1.10

// compareServe diffs the server-simulation sections cell by cell,
// reporting the latency tail quantiles — the section's reason to exist —
// alongside throughput, and flagging every cell whose p99 or p999 got
// materially worse. Cells are matched on the full grid key, so a grid
// reshape simply reports fewer shared cells.
func compareServe(before, after *Report) {
	if len(before.Serve) == 0 || len(after.Serve) == 0 {
		return
	}
	prior := make(map[string]ServeResult, len(before.Serve))
	for _, r := range before.Serve {
		if r.Error == "" {
			prior[r.key()] = r
		}
	}
	fmt.Println("serve grid (latency in deterministic ticks; p99/p999 worsening flagged):")
	var shared, regressions int
	for _, b := range after.Serve {
		if b.Error != "" {
			fmt.Printf("  %-32s after-run error: %s\n", b.key(), b.Error)
			continue
		}
		a, ok := prior[b.key()]
		if !ok {
			continue
		}
		shared++
		flag := ""
		if worse(a.LatencyP99, b.LatencyP99) || worse(a.LatencyP999, b.LatencyP999) {
			regressions++
			flag = "  <-- TAIL REGRESSION"
		}
		fmt.Printf("  %-32s p99 %5d -> %-5d  p999 %5d -> %-5d  max %5d -> %-5d  reqs/ktick %7.2f -> %-7.2f%s\n",
			b.key(), a.LatencyP99, b.LatencyP99, a.LatencyP999, b.LatencyP999,
			a.LatencyMax, b.LatencyMax, a.ReqsPerKilotick, b.ReqsPerKilotick, flag)
	}
	if regressions > 0 {
		fmt.Printf("  %d of %d shared serve cells regressed on tail latency\n", regressions, shared)
	} else {
		fmt.Printf("  no tail-latency regressions across %d shared serve cells\n", shared)
	}
}

// worse reports whether the after quantile exceeds the before quantile by
// more than the tolerance. A zero before-value only regresses if the after
// value is nonzero at all (no ratio exists).
func worse(before, after uint64) bool {
	if before == 0 {
		return after > 0
	}
	return float64(after)/float64(before) > serveTailTolerance
}

// driftNote flags the pattern a real code change never produces: every
// shared row shifted by about the same factor, and that factor is not 1.
// That shape means the two reports ran on differently loaded (or different)
// machines, so the per-row speedups should be read as noise.
func driftNote(sp map[string]float64) string {
	if len(sp) < 3 {
		return ""
	}
	logSum := 0.0
	for _, s := range sp {
		if s <= 0 {
			return ""
		}
		logSum += math.Log(s)
	}
	geo := math.Exp(logSum / float64(len(sp)))
	for _, s := range sp {
		if s < geo*0.9 || s > geo*1.1 {
			return ""
		}
	}
	if math.Abs(geo-1) <= 0.05 {
		return ""
	}
	return fmt.Sprintf("  warning: all %d shared rows shifted together (geomean %.2fx, every row within ±10%% of it) — uniform drift, likely a machine-speed difference rather than a code change",
		len(sp), geo)
}

// smoke is the CI parity gate: the workers=1 parallel engines must stay
// within noise of the sequential engines on the same forest (the inline
// worker loop adds no goroutines, so a large gap means the parallel drain
// grew a per-object cost). The 1.75x bound is deliberately loose — it
// catches algorithmic regressions, not scheduler jitter.
func smoke() error {
	const maxRatio = 1.75
	rows := parallelBenchmarks([]int{0, 1})
	rows = append(rows, sweepBenchmarks([]int{0, 1})...)
	byKey := make(map[string]ParallelResult)
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Engine, r.GCWorkers)] = r
	}
	var failed bool
	for _, engine := range []string{"mark", "evacuate", "sweep"} {
		seq, par := byKey[engine+"/0"], byKey[engine+"/1"]
		ratio := par.NsPerOp / seq.NsPerOp
		fmt.Printf("smoke: %-9s sequential %.0f ns/op, workers=1 parallel %.0f ns/op (%.2fx)\n",
			engine, seq.NsPerOp, par.NsPerOp, ratio)
		if ratio > maxRatio {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("workers=1 parallel engine exceeds %.2fx of sequential", maxRatio)
	}
	return nil
}

func main() {
	out := flag.String("out", "-", "write the report JSON here (- for stdout)")
	before := flag.String("before", "", "embed this prior report as the before run and compute speedups")
	cmp := flag.Bool("compare", false, "compare two BENCH_*.json files given as arguments instead of measuring")
	smokeOnly := flag.Bool("smoke", false, "only check workers=1 parallel-engine parity with the sequential engines")
	tenureOnly := flag.Bool("tenure", false, "only run the fixed-vs-adaptive tenuring grid and emit it as JSON")
	serveOnly := flag.Bool("serve", false, "only run the server-simulation latency grid and emit it as JSON")
	flag.Parse()

	if *smokeOnly {
		if err := smoke(); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	if *tenureOnly {
		if err := writeJSON(*out, tenureBenchmarks()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *serveOnly {
		if err := writeJSON(*out, serveBenchmarks()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchreport -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := compare(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	rep := run()
	if *before == "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	prior, err := loadReport(*before)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c := Comparison{Schema: "rdgc-bench-compare/1", Before: prior, After: rep, Speedup: speedups(prior, rep)}
	if err := writeJSON(*out, &c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
