// Conformance tests for age-based tenuring (heap/tenure.go): the age
// oracle pins the side age tables to a move-hook shadow model, and the
// degenerate thresholds pin the two ends of the policy spectrum —
// threshold 1 must be bit-for-bit the wholesale collector it replaces,
// and threshold ∞ (heap.TenureNever) must never promote out of the
// nursery nor remember nursery-to-nursery pointers.
package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/gc/generational"
	"rdgc/internal/gc/hybrid"
	"rdgc/internal/gc/multigen"
	"rdgc/internal/heap"
)

// tenuringCollectors builds each tenuring-capable collector at an explicit
// promotion threshold (0 = adaptive).
func tenuringCollectors(threshold int) map[string]func(h *heap.Heap) heap.Collector {
	mgOpt := func() multigen.Option {
		if threshold == 0 {
			return multigen.WithAdaptive()
		}
		return multigen.WithTenure(threshold)
	}
	hyOpt := func() hybrid.Option {
		if threshold == 0 {
			return hybrid.WithAdaptive()
		}
		return hybrid.WithTenure(threshold)
	}
	return map[string]func(h *heap.Heap) heap.Collector{
		"generational": func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024, 16384, multigen.WithExpansion(2), mgOpt())
		},
		"multigen": func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{1024, 2048, 16384}, multigen.WithExpansion(2), mgOpt())
		},
		"hybrid": func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512, 8, 1024, hybrid.WithGrowth(), hyOpt())
		},
	}
}

// runWithAgeOracle drives the randomized workload with the move-hook age
// oracle attached, checking the side tables against the oracle after every
// collection and at the end. It returns the peak number of nonzero-age
// objects observed, so callers can assert retention actually happened.
func runWithAgeOracle(t *testing.T, mk func(h *heap.Heap) heap.Collector, seed int64, census bool, nOps int) int {
	t.Helper()
	var opts []heap.Option
	if census {
		opts = append(opts, heap.WithCensus())
	}
	h := heap.New(opts...)
	c := mk(h)
	ten, ok := c.(heap.Tenurer)
	if !ok {
		t.Fatalf("%s does not implement heap.Tenurer", c.Name())
	}
	o := gctest.InstallAgeOracle(h, ten)
	var gcErr error
	h.SetAfterGC(func() {
		o.AfterGC()
		if gcErr == nil {
			gcErr = heap.VerifyCollector(h, c)
		}
		if gcErr == nil {
			gcErr = o.Check()
		}
	})
	defer h.SetAfterGC(nil)

	src := rand.New(rand.NewSource(seed))
	m := gctest.NewMutator(h, src)
	peak := 0
	for op := 0; op < nOps; op++ {
		m.Op(src.Intn(10))
		if gcErr != nil {
			t.Fatalf("op %d: %v", op, gcErr)
		}
		if n, _ := o.Tracked(); n > peak {
			peak = n
		}
	}
	c.Collect()
	if gcErr != nil {
		t.Fatal(gcErr)
	}
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("shadow model: %v", err)
	}
	if err := o.Check(); err != nil {
		t.Fatal(err)
	}
	return peak
}

// TestAgeOracle holds every tenuring collector's side age tables to the
// move-hook shadow model across thresholds (including never-promote and
// the adaptive controller), seeds, and census instrumentation.
func TestAgeOracle(t *testing.T) {
	const oracleOps = 2500
	for _, threshold := range []int{2, 3, heap.TenureNever, 0 /* adaptive */} {
		for name, mk := range tenuringCollectors(threshold) {
			for _, census := range []bool{false, true} {
				for seed := int64(1); seed <= 2; seed++ {
					label := fmt.Sprintf("%s/threshold=%d/census=%v/seed%d", name, threshold, census, seed)
					t.Run(label, func(t *testing.T) {
						peak := runWithAgeOracle(t, mk, seed, census, oracleOps)
						if threshold != 0 && peak == 0 {
							t.Error("workload never retained a survivor; the oracle proved nothing")
						}
					})
				}
			}
		}
	}
}

// TestAgeOracleDetectsCorruption is the regression guard for the oracle
// itself: corrupting one live object's side-table age must fail Check.
func TestAgeOracleDetectsCorruption(t *testing.T) {
	h := heap.New()
	c := generational.New(h, 1024, 16384, multigen.WithTenure(heap.TenureNever))
	o := gctest.InstallAgeOracle(h, c)

	sc := h.Scope()
	defer sc.Close()
	live := gctest.BuildList(h, 20)
	gctest.Churn(h, 2000) // force several retaining minor collections
	gctest.CheckList(t, h, live, 20)
	o.AfterGC()
	if err := o.Check(); err != nil {
		t.Fatalf("oracle failed before corruption: %v", err)
	}

	var victim heap.Word
	var victimAge int
	for w, age := range o.Ages() {
		if age >= 1 {
			victim, victimAge = w, age
			break
		}
	}
	if victimAge == 0 {
		t.Fatal("no retained object to corrupt")
	}
	h.SpaceOf(victim).SetAgeAt(heap.PtrOff(victim), victimAge+1)
	if err := o.Check(); err == nil {
		t.Fatal("oracle did not detect a corrupted side-table age")
	}
}

// captureTenureRun plays the randomized workload on a fresh heap whose
// tenuring knobs are pinned by configure, and snapshots the final state.
func captureTenureRun(t *testing.T, mk func(h *heap.Heap) heap.Collector, seed int64, workers int, incr bool, configure func(h *heap.Heap)) heapImage {
	t.Helper()
	h := heap.New()
	h.SetGCWorkers(workers)
	h.SetGCIncremental(incr)
	configure(h)
	c := mk(h)
	gctest.RandomOps(t, h, c, ops, seed)
	c.Collect()
	img := heapImage{stats: h.Stats, gc: *c.GCStats()}
	for _, s := range h.Spaces {
		img.spaces = append(img.spaces, spaceImage{
			name: s.Name,
			top:  s.Top,
			mem:  append([]heap.Word(nil), s.Mem[:s.Top]...),
		})
	}
	return img
}

// TestTenureThresholdOneIsWholesale pins the degenerate identity the
// tenuring design promises: an explicit threshold of 1 must reproduce the
// wholesale collector bit for bit — same heap images, same mutator stats,
// same GCStats (including the new tenuring fields staying zero) — at
// sequential and parallel worker counts and under incremental mode. Both
// sides pin the heap knobs explicitly so an RDGC_GC_TENURE/RDGC_GC_ADAPT
// environment cannot skew the baseline.
func TestTenureThresholdOneIsWholesale(t *testing.T) {
	wholesale := func(h *heap.Heap) {
		h.SetGCTenure(1)
		h.SetGCAdaptive(false)
	}
	base := map[string]func(h *heap.Heap) heap.Collector{
		"generational": func(h *heap.Heap) heap.Collector {
			return generational.New(h, 1024, 16384, multigen.WithExpansion(2))
		},
		"multigen": func(h *heap.Heap) heap.Collector {
			return multigen.New(h, []int{1024, 2048, 16384}, multigen.WithExpansion(2))
		},
		"hybrid": func(h *heap.Heap) heap.Collector {
			return hybrid.New(h, 512, 8, 1024, hybrid.WithGrowth())
		},
	}
	one := tenuringCollectors(1)
	for name := range base {
		for _, workers := range []int{0, 4} {
			for _, incr := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/incr=%v", name, workers, incr), func(t *testing.T) {
					ref := captureTenureRun(t, base[name], 41, workers, incr, wholesale)
					got := captureTenureRun(t, one[name], 41, workers, incr, wholesale)
					if workers == 0 {
						compareImages(t, got, ref)
						return
					}
					// Parallel copy order races run to run, so the parallel
					// pin is the tier-2/3 contract: identical mutator stats
					// and GCStats (images may legitimately differ).
					if got.stats != ref.stats {
						t.Errorf("mutator stats diverge: threshold-1 %+v, wholesale %+v", got.stats, ref.stats)
					}
					if got.gc != ref.gc {
						t.Errorf("GCStats diverge:\n  threshold-1 %+v\n  wholesale   %+v", got.gc, ref.gc)
					}
				})
			}
		}
	}
}

// TestTenureNeverPromotesNothing pins the other end of the spectrum: under
// heap.TenureNever, minor collections retain every survivor in the young
// region — no words promoted, no major collections provoked, and (because
// nothing old ever points at the nursery) an empty remembered set even
// with nursery-to-nursery pointer writes flowing through the barrier.
func TestTenureNeverPromotesNothing(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("generational/workers=%d", workers), func(t *testing.T) {
			h := heap.New()
			h.SetGCWorkers(workers)
			h.SetGCAdaptive(false)
			c := generational.New(h, 1024, 16384,
				multigen.WithExpansion(2), multigen.WithTenure(heap.TenureNever))
			exerciseTenureNever(t, h, c)
			if n := c.RemsetLen(); n != 0 {
				t.Errorf("remembered set has %d entries, want 0", n)
			}
		})
		t.Run(fmt.Sprintf("multigen/workers=%d", workers), func(t *testing.T) {
			h := heap.New()
			h.SetGCWorkers(workers)
			h.SetGCAdaptive(false)
			c := multigen.New(h, []int{1024, 2048, 16384},
				multigen.WithExpansion(2), multigen.WithTenure(heap.TenureNever))
			exerciseTenureNever(t, h, c)
			if n := c.RemsetLen(); n != 0 {
				t.Errorf("remembered set has %d entries, want 0", n)
			}
		})
		t.Run(fmt.Sprintf("hybrid/workers=%d", workers), func(t *testing.T) {
			h := heap.New()
			h.SetGCWorkers(workers)
			h.SetGCAdaptive(false)
			c := hybrid.New(h, 512, 8, 1024,
				hybrid.WithGrowth(), hybrid.WithTenure(heap.TenureNever))
			exerciseTenureNever(t, h, c)
			if a, b := c.RemsetLens(); a != 0 || b != 0 {
				t.Errorf("remembered sets have %d+%d entries, want 0", a, b)
			}
		})
	}
}

// exerciseTenureNever churns garbage under a small pinned structure with
// nursery-internal pointer writes, without ever forcing a collection, and
// asserts the never-promote invariants on the resulting stats.
func exerciseTenureNever(t *testing.T, h *heap.Heap, c heap.Collector) {
	t.Helper()
	st := c.GCStats()
	sc := h.Scope()
	defer sc.Close()

	const n = 30
	list := gctest.BuildList(h, n)
	// Nursery-to-nursery writes through the barrier: rotate a cell's cdr.
	cell := h.Cons(h.Fix(-1), h.Null())
	h.SetCdr(cell, list)
	gctest.Churn(h, 4000)
	h.SetCdr(cell, h.Cdr(list))
	gctest.Churn(h, 4000)

	gctest.CheckList(t, h, list, n)
	if st.Collections == 0 {
		t.Fatal("workload never collected")
	}
	if st.MajorCollections != 0 {
		t.Errorf("never-promote run forced %d major collections", st.MajorCollections)
	}
	if st.WordsPromoted != 0 {
		t.Errorf("promoted %d words under TenureNever, want 0", st.WordsPromoted)
	}
	if st.WordsTenured == 0 {
		t.Error("no words were retained; the workload proved nothing")
	}
	if err := heap.VerifyCollector(h, c); err != nil {
		t.Error(err)
	}
}
