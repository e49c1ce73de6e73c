// Package gcfuzz interprets a fuzzer-mutated byte string as a deterministic
// mutator workload and runs it against every collector in the repository,
// checking three properties after every collection and at the end of the
// program:
//
//  1. The deep heap-invariant catalog holds (heap.Verify, under each
//     collector's declared VerifySpec).
//  2. Every rooted structure is identical to its native Go shadow
//     (the gctest shadow model).
//  3. The mutator-side statistics are identical across collectors: the
//     mutator alone decides what is allocated, so any divergence means a
//     collector corrupted the workload's control flow.
//
// The byte program has no framing: every byte feeds the same cursor. The
// first byte of each step selects an operation (mod numProgOps); operations
// then consume as many further bytes as they need for operands, via the
// gctest.Source interface. An exhausted program reads zeroes for operands
// and ends the step loop. This "everything is valid" encoding is what makes
// coverage-guided mutation effective: any byte string is a program, and
// small mutations make small behavioral changes.
package gcfuzz

import (
	"fmt"

	"rdgc/internal/core"
	"rdgc/internal/gc/gctest"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/marksweep"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/gc/npms"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
)

// MaxProgram bounds the bytes interpreted from one program. Longer inputs
// are truncated rather than rejected, so the fuzzer can grow inputs freely;
// the bound keeps worst-case live data within every collector's fixed-size
// configuration.
const MaxProgram = 4096

// numProgOps is the dispatch modulus: gctest's mutator ops plus the
// harness's own collection and verification ops.
const (
	opCollect     = gctest.NumOps     // force a (major) collection
	opVerify      = gctest.NumOps + 1 // verify invariants mid-mutation
	opFullCollect = gctest.NumOps + 2 // full collection where supported
	opNop         = gctest.NumOps + 3
	numProgOps    = gctest.NumOps + 4
)

// byteSource feeds a program's bytes to the mutator as a gctest.Source.
// Reads past the end return zero and mark the source exhausted.
type byteSource struct {
	data []byte
	pos  int
}

func (b *byteSource) next() byte {
	if b.pos >= len(b.data) {
		b.pos++ // keep moving so done() holds even for operand reads
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

func (b *byteSource) done() bool { return b.pos >= len(b.data) }

// Intn implements gctest.Source. One byte covers the small bounds the
// mutator uses; large bounds (root-table indices once the table passes 256
// entries) take a second byte.
func (b *byteSource) Intn(n int) int {
	if n <= 0 {
		panic("gcfuzz: Intn bound must be positive")
	}
	v := int(b.next())
	if n > 256 {
		v = v<<8 | int(b.next())
	}
	return v % n
}

// Int63n implements gctest.Source with two bytes of range.
func (b *byteSource) Int63n(n int64) int64 {
	if n <= 0 {
		panic("gcfuzz: Int63n bound must be positive")
	}
	v := int64(b.next())<<8 | int64(b.next())
	return v % n
}

// NamedCollector pairs a constructor with its report name.
type NamedCollector struct {
	Name string
	New  func(h *heap.Heap) heap.Collector
}

// Collectors returns the constructors the fuzz harness drives, in a fixed
// order. Sizes are chosen so the worst-case live data of a MaxProgram-byte
// program fits every fixed-size configuration, and growth is enabled where
// the collector supports it.
func Collectors() []NamedCollector {
	return []NamedCollector{
		{"semispace", func(h *heap.Heap) heap.Collector {
			return semispace.New(h, 8192, semispace.WithExpansion(2))
		}},
		{"marksweep", func(h *heap.Heap) heap.Collector {
			return marksweep.New(h, 8192, marksweep.WithExpansion(2))
		}},
		{"generational", func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024, 16384, multigen.WithExpansion(2))
		}},
		{"nonpredictive", func(h *heap.Heap) heap.Collector {
			return core.New(h, 8, 1024, core.WithGrowth())
		}},
		{"hybrid", func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512, 8, 1024, hybrid.WithGrowth())
		}},
		{"multigen", func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{1024, 2048, 16384}, multigen.WithExpansion(2))
		}},
		{"npms", func(h *heap.Heap) heap.Collector {
			return npms.New(h, 8, 4096)
		}},
	}
}

// CollectorsSized returns the same seven collectors scaled to a workload
// whose comfortable heap size is total words — the grid cmd/gctrace uses
// to replay recorded benchmark traces. Growth/expansion is enabled
// everywhere it exists, so the sizes are starting points, not ceilings.
func CollectorsSized(total int) []NamedCollector {
	if total < 4096 {
		total = 4096
	}
	nursery := total / 8
	return []NamedCollector{
		{"semispace", func(h *heap.Heap) heap.Collector {
			return semispace.New(h, total, semispace.WithExpansion(2))
		}},
		{"marksweep", func(h *heap.Heap) heap.Collector {
			return marksweep.New(h, total, marksweep.WithExpansion(2))
		}},
		{"generational", func(h *heap.Heap) heap.Collector {
			return generational.New(h, nursery, 2*total, multigen.WithExpansion(2))
		}},
		{"nonpredictive", func(h *heap.Heap) heap.Collector {
			return core.New(h, 8, nursery, core.WithGrowth())
		}},
		{"hybrid", func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, nursery/2, 8, nursery, hybrid.WithGrowth())
		}},
		{"multigen", func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{nursery, 2 * nursery, 2 * total}, multigen.WithExpansion(2))
		}},
		{"npms", func(h *heap.Heap) heap.Collector {
			// npms has no growth option; size its k steps generously.
			return npms.New(h, 8, total)
		}},
	}
}

// fullCollector is the optional whole-heap collection the non-predictive
// collectors expose.
type fullCollector interface{ FullCollect() }

// Run interprets prog against a fresh heap managed by mk's collector and
// returns the mutator statistics plus the first property violation found.
// census turns on per-object birth stamps, doubling as a check that the
// hidden census word never confuses a collector.
func Run(prog []byte, mk func(h *heap.Heap) heap.Collector, census bool) (heap.Stats, error) {
	return runWith(prog, mk, census, nil, 0, false, nil)
}

// RunAt is Run with the heap configured for gcWorkers parallel tracing
// workers (0 = the sequential engines). The property set is unchanged:
// parallel tracing must be invisible to every invariant checked here.
func RunAt(prog []byte, mk func(h *heap.Heap) heap.Collector, census bool, gcWorkers int) (heap.Stats, error) {
	return runWith(prog, mk, census, nil, gcWorkers, false, nil)
}

// RunIncr is Run with the heap in incremental collection mode (insertion
// barrier, mark slices, lazy sweeping) for the collectors that support it;
// the others ignore the flag. The property set is unchanged — in particular
// the shadow-model comparison and the final whole-heap Check must hold with
// collection interleaved into the mutator at slice granularity.
func RunIncr(prog []byte, mk func(h *heap.Heap) heap.Collector, census bool) (heap.Stats, error) {
	return runWith(prog, mk, census, nil, 0, true, nil)
}

// RunWith is Run with an instrumentation hook: when wrap is non-nil, the
// freshly constructed collector is passed through it and the returned
// wrapper receives the program's collect operations (allocations still
// flow through the heap's installed allocator). The trace recorder hooks
// in here — cmd/gcfuzz -emit-trace exports a byte program as a trace —
// without this package importing the trace codec.
func RunWith(prog []byte, mk func(h *heap.Heap) heap.Collector, census bool, wrap func(h *heap.Heap, c heap.Collector) heap.Collector) (heap.Stats, error) {
	return runWith(prog, mk, census, wrap, 0, false, nil)
}

// RunTenured is Run with the heap's promotion threshold pinned (so the
// tenuring-capable collectors retain survivors in the nursery until they
// age out; heap.TenureNever and adaptive mode via threshold 0 are both
// meaningful) and, on collectors that implement heap.Tenurer, the gctest
// age oracle attached: every retained object's side-table age must match a
// move-hook shadow count throughout the run.
func RunTenured(prog []byte, mk func(h *heap.Heap) heap.Collector, census bool, threshold int) (heap.Stats, error) {
	return runWith(prog, mk, census, nil, 0, false, func(h *heap.Heap) {
		if threshold == 0 {
			h.SetGCAdaptive(true)
		} else {
			h.SetGCTenure(threshold)
			h.SetGCAdaptive(false)
		}
	})
}

func runWith(prog []byte, mk func(h *heap.Heap) heap.Collector, census bool, wrap func(h *heap.Heap, c heap.Collector) heap.Collector, gcWorkers int, incremental bool, configure func(h *heap.Heap)) (heap.Stats, error) {
	if len(prog) > MaxProgram {
		prog = prog[:MaxProgram]
	}
	var opts []heap.Option
	if census {
		opts = append(opts, heap.WithCensus())
	}
	h := heap.New(opts...)
	h.SetGCWorkers(gcWorkers)
	h.SetGCIncremental(incremental)
	tenured := configure != nil
	if tenured {
		configure(h)
	}
	c := mk(h)
	drive := c
	if wrap != nil {
		drive = wrap(h, c)
	}

	// Tenured runs carry the age oracle: the collector's side age tables
	// are held to a move-hook shadow count for the whole program.
	var oracle *gctest.AgeOracle
	if ten, ok := c.(heap.Tenurer); tenured && ok {
		oracle = gctest.InstallAgeOracle(h, ten)
	}

	// The after-GC hook sees every collection, including those triggered by
	// allocation inside a mutator op; only the first violation is kept.
	var gcErr error
	h.SetAfterGC(func() {
		if oracle != nil {
			oracle.AfterGC()
		}
		if gcErr == nil {
			gcErr = heap.VerifyCollector(h, c)
		}
		if gcErr == nil && oracle != nil {
			gcErr = oracle.Check()
		}
	})

	src := &byteSource{data: prog}
	m := gctest.NewMutator(h, src)
	for step := 0; !src.done() && gcErr == nil; step++ {
		switch k := src.Intn(numProgOps); k {
		case opCollect:
			drive.Collect()
		case opVerify:
			// Mid-mutation verification is the only point where rules about
			// pointers into a nursery can bite: nurseries are empty at every
			// after-collection hook.
			if err := heap.VerifyCollector(h, c); err != nil {
				return h.Stats, fmt.Errorf("step %d: %w", step, err)
			}
			if err := m.Verify(); err != nil {
				return h.Stats, fmt.Errorf("step %d: %w", step, err)
			}
		case opFullCollect:
			if fc, ok := drive.(fullCollector); ok {
				fc.FullCollect()
			} else {
				drive.Collect()
			}
		case opNop:
		default:
			m.Op(k)
		}
		if gcErr != nil {
			return h.Stats, fmt.Errorf("step %d: %w", step, gcErr)
		}
	}

	drive.Collect()
	if gcErr != nil {
		return h.Stats, gcErr
	}
	if err := heap.Check(h); err != nil {
		return h.Stats, err
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		return h.Stats, err
	}
	if err := m.Verify(); err != nil {
		return h.Stats, err
	}
	if oracle != nil {
		if err := oracle.Check(); err != nil {
			return h.Stats, err
		}
	}
	return h.Stats, nil
}

// RunAll runs prog against every collector from Collectors and checks that
// the mutator statistics agree across all of them. It returns the first
// violation, naming the collector that produced it.
func RunAll(prog []byte, census bool) error {
	return RunAllAt(prog, census, 0)
}

// RunAllAt is RunAll with every heap configured for gcWorkers parallel
// tracing workers: the mutator statistics depend only on the program, so
// they must also agree across worker counts.
func RunAllAt(prog []byte, census bool, gcWorkers int) error {
	var first heap.Stats
	for i, nc := range Collectors() {
		stats, err := RunAt(prog, nc.New, census, gcWorkers)
		if err != nil {
			return fmt.Errorf("%s: %w", nc.Name, err)
		}
		if i == 0 {
			first = stats
		} else if stats != first {
			return fmt.Errorf("%s: mutator stats diverged: %+v, %s got %+v",
				nc.Name, first, Collectors()[0].Name, stats)
		}
	}
	return nil
}

// RunAllTenured runs prog against every collector with the promotion
// threshold pinned (0 = adaptive) and the age oracle attached to the
// tenuring-capable ones, and checks the mutator statistics agree across
// collectors — and against the wholesale run of the same program, since
// the mutator alone decides what is allocated, a tenuring policy must not
// perturb its statistics either.
func RunAllTenured(prog []byte, census bool, threshold int) error {
	base, err := Run(prog, Collectors()[0].New, census)
	if err != nil {
		return fmt.Errorf("%s (wholesale): %w", Collectors()[0].Name, err)
	}
	for _, nc := range Collectors() {
		stats, err := RunTenured(prog, nc.New, census, threshold)
		if err != nil {
			return fmt.Errorf("%s (threshold=%d): %w", nc.Name, threshold, err)
		}
		if stats != base {
			return fmt.Errorf("%s (threshold=%d): mutator stats diverged from wholesale: %+v vs %+v",
				nc.Name, threshold, stats, base)
		}
	}
	return nil
}

// RunAllAdaptive is RunAllTenured with the policy controller driving the
// knobs instead of a fixed threshold.
func RunAllAdaptive(prog []byte, census bool) error {
	return RunAllTenured(prog, census, 0)
}

// RunAllIncr runs prog against every collector in incremental mode and
// additionally pins the mutator statistics identical to the stop-the-world
// run of the same program on the same collector: incremental collection must
// be invisible to the mutator.
func RunAllIncr(prog []byte, census bool) error {
	for _, nc := range Collectors() {
		stw, err := Run(prog, nc.New, census)
		if err != nil {
			return fmt.Errorf("%s (stw): %w", nc.Name, err)
		}
		incr, err := RunIncr(prog, nc.New, census)
		if err != nil {
			return fmt.Errorf("%s (incremental): %w", nc.Name, err)
		}
		if stw != incr {
			return fmt.Errorf("%s: incremental mutator stats diverged from stop-the-world: %+v vs %+v",
				nc.Name, incr, stw)
		}
	}
	return nil
}

// Minimize shrinks a failing program while fails keeps reporting true. It
// first deletes chunks (halving the chunk size down to one byte), then
// zeroes individual bytes, so replayed failures stay as small and as plain
// as possible. fails must be deterministic.
func Minimize(prog []byte, fails func([]byte) bool) []byte {
	cur := append([]byte(nil), prog...)
	if !fails(cur) {
		return cur
	}
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur); {
			cand := append(append([]byte(nil), cur[:start]...), cur[start+chunk:]...)
			if fails(cand) {
				cur = cand
				// Do not advance: the next chunk shifted into this window.
			} else {
				start += chunk
			}
		}
	}
	for i := range cur {
		if cur[i] == 0 {
			continue
		}
		old := cur[i]
		cur[i] = 0
		if !fails(cur) {
			cur[i] = old
		}
	}
	return cur
}
