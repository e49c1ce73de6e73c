package multigen

import (
	"errors"
	"fmt"
	"testing"

	"rdgc/internal/gc/gctest"
	"rdgc/internal/heap"
	"rdgc/internal/remset"
)

// Generations must grow geometrically: each one needs room for the
// worst-case survivors of everything younger, or promotion skips it.
func sizes() []int { return []int{1024, 2048, 4096, 16384} }

func TestStress(t *testing.T) {
	h := heap.New()
	c := New(h, sizes())
	gctest.StressCollector(t, h, c)
}

func TestStressWithCensus(t *testing.T) {
	h := heap.New(heap.WithCensus())
	c := New(h, sizes())
	gctest.StressCollector(t, h, c)
}

func TestStressTwoGens(t *testing.T) {
	h := heap.New()
	c := New(h, []int{1024, 16384})
	gctest.StressCollector(t, h, c)
}

func TestStressSSB(t *testing.T) {
	h := heap.New()
	c := New(h, sizes(), WithRemset(remset.NewSSB()))
	gctest.StressCollector(t, h, c)
}

func TestObjectsAgeThroughGenerations(t *testing.T) {
	h := heap.New()
	c := New(h, []int{512, 1024, 2048, 8192}, WithExpansion(2))
	s := h.Scope()
	defer s.Close()

	obj := h.Cons(h.Fix(77), h.Null())
	if g := c.genIdx(h.Get(obj)); g != 0 {
		t.Fatalf("fresh object in generation %d", g)
	}
	// Grow live data (so promotions actually fill the intermediate
	// generations) while watching the object climb the pipeline. Its
	// generation must ascend monotonically through an intermediate stage.
	gens := map[int]bool{}
	prev := 0
	acc := h.Null()
	for i := 0; i < 4000; i++ {
		acc = h.Cons(h.Fix(int64(i)), acc)
		gctest.Churn(h, 3)
		g := c.genIdx(h.Get(obj))
		gens[g] = true
		if g < prev {
			t.Fatalf("object demoted from generation %d to %d", prev, g)
		}
		prev = g
	}
	if !gens[1] && !gens[2] {
		t.Errorf("object never seen in an intermediate generation: %v", gens)
	}
	if g := c.genIdx(h.Get(obj)); g < 1 {
		t.Errorf("long-lived object still in the nursery")
	}
	if got := h.FixVal(h.Car(obj)); got != 77 {
		t.Errorf("object corrupted: %d", got)
	}
}

func TestOlderToYoungerPointerIsRemembered(t *testing.T) {
	h := heap.New()
	c := New(h, []int{512, 1024, 8192})
	s := h.Scope()
	defer s.Close()

	holder := h.Cons(h.Null(), h.Null())
	c.Collect() // holder now in the old generation
	if g := c.genIdx(h.Get(holder)); g != len(c.gens)-1 {
		t.Fatalf("holder in generation %d after major", g)
	}
	func() {
		s2 := h.Scope()
		defer s2.Close()
		young := h.Cons(h.Fix(5), h.Null())
		h.SetCar(holder, young)
	}()
	if c.RemsetLen() == 0 {
		t.Fatal("barrier missed old-to-young store")
	}
	gctest.Churn(h, 3000)
	got := h.Car(holder)
	if !h.IsPair(got) || h.FixVal(h.Car(got)) != 5 {
		t.Error("young object referenced only from the old generation was lost")
	}
}

func TestRemsetRefilterDropsStaleEntries(t *testing.T) {
	// §8.4's refinement: once a remembered object's referent has been
	// promoted alongside it, rescanning removes the entry.
	h := heap.New()
	c := New(h, []int{512, 8192})
	s := h.Scope()
	defer s.Close()

	holder := h.Cons(h.Null(), h.Null())
	c.Collect()
	young := h.Cons(h.Fix(1), h.Null())
	h.SetCar(holder, young)
	if c.RemsetLen() != 1 {
		t.Fatalf("remset = %d, want 1", c.RemsetLen())
	}
	// A minor collection promotes `young` into the same generation as
	// holder; the refilter must drop the entry.
	c.collectUpTo(0)
	if c.RemsetLen() != 0 {
		t.Errorf("remset = %d after refilter, want 0", c.RemsetLen())
	}
	if got := h.FixVal(h.Car(h.Car(holder))); got != 1 {
		t.Errorf("structure corrupted: %d", got)
	}
}

func TestLargeObjectGoesOld(t *testing.T) {
	h := heap.New()
	c := New(h, []int{256, 256, 8192})
	s := h.Scope()
	defer s.Close()
	v := h.MakeVector(500, h.Null())
	if g := c.genIdx(h.Get(v)); g != len(c.gens)-1 {
		t.Errorf("large object in generation %d", g)
	}
}

func TestExpansion(t *testing.T) {
	h := heap.New()
	c := New(h, []int{512, 512, 1024}, WithExpansion(2))
	s := h.Scope()
	defer s.Close()
	list := gctest.BuildList(h, 2000)
	gctest.CheckList(t, h, list, 2000)
	if c.gens[len(c.gens)-1].Cap() <= 1024 {
		t.Error("old generation did not grow")
	}
}

func TestHeapCheckAfterChurn(t *testing.T) {
	h := heap.New()
	c := New(h, sizes())
	s := h.Scope()
	defer s.Close()
	keep := gctest.BuildList(h, 100)
	gctest.Churn(h, 20000)
	c.Collect()
	if err := heap.Check(h); err != nil {
		t.Fatal(err)
	}
	gctest.CheckList(t, h, keep, 100)
}

// The two-generation configuration is the conventional generational
// collector (internal/gc/generational).
func twoGens() []int { return []int{512, 8192} }

func TestMinorPromotesAllSurvivors(t *testing.T) {
	h := heap.New()
	c := New(h, twoGens())
	s := h.Scope()
	defer s.Close()

	list := gctest.BuildList(h, 20)
	gctest.Churn(h, 2000) // forces minor collections
	gctest.CheckList(t, h, list, 20)

	if c.GCStats().WordsPromoted == 0 {
		t.Error("no words were promoted by minor collections")
	}
	// After churn, the survivors must reside in the old generation.
	if g := c.genIdx(h.Get(list)); g != 1 {
		t.Errorf("survivor in generation %d after minor collections, want 1", g)
	}
}

func TestRemsetCatchesOldToYoungPointer(t *testing.T) {
	h := heap.New()
	c := New(h, twoGens())
	s := h.Scope()
	defer s.Close()

	// Create an old object by promoting it.
	oldObj := h.Cons(h.Fix(1), h.Null())
	c.Collect()
	if c.genIdx(h.Get(oldObj)) != 1 {
		t.Fatal("object not promoted by major collection")
	}

	// Store a young pointer into it; drop our direct handle to the young
	// object so the remembered set is the only path that keeps it alive
	// through the next minor collection.
	func() {
		s2 := h.Scope()
		defer s2.Close()
		young := h.Cons(h.Fix(42), h.Null())
		h.SetCar(oldObj, young)
	}()
	if c.RemsetLen() == 0 {
		t.Fatal("write barrier did not record the old-to-young store")
	}

	gctest.Churn(h, 2000) // minor collections happen
	got := h.Car(oldObj)
	if !h.IsPair(got) {
		t.Fatal("young object referenced only from old generation was lost")
	}
	if v := h.FixVal(h.Car(got)); v != 42 {
		t.Errorf("young object corrupted: %d", v)
	}
}

func TestBarrierIgnoresYoungToYoung(t *testing.T) {
	h := heap.New()
	c := New(h, []int{2048, 8192})
	s := h.Scope()
	defer s.Close()
	a := h.Cons(h.Fix(1), h.Null())
	b := h.Cons(h.Fix(2), h.Null())
	h.SetCar(a, b) // both in the nursery
	if c.RemsetLen() != 0 {
		t.Errorf("remset = %d entries after young-to-young store, want 0", c.RemsetLen())
	}
}

func TestMajorResetsRemset(t *testing.T) {
	h := heap.New()
	c := New(h, twoGens())
	s := h.Scope()
	defer s.Close()
	oldObj := h.Cons(h.Fix(1), h.Null())
	c.Collect()
	young := h.Cons(h.Fix(2), h.Null())
	h.SetCar(oldObj, young)
	if c.RemsetLen() == 0 {
		t.Fatal("barrier missed the store")
	}
	c.Collect()
	if c.RemsetLen() != 0 {
		t.Errorf("remset = %d after major collection, want 0", c.RemsetLen())
	}
	if v := h.FixVal(h.Car(h.Car(oldObj))); v != 2 {
		t.Errorf("structure corrupted by major collection: %d", v)
	}
}

// TestVerifierCatchesDroppedRemsetEntry seeds the bug class the remembered-
// set rules exist to catch: an old object points into the nursery but its
// entry has been lost (the classic write-barrier omission).
func TestVerifierCatchesDroppedRemsetEntry(t *testing.T) {
	h := heap.New()
	c := New(h, []int{1024, 16384}, WithExpansion(2))
	s := h.Scope()
	defer s.Close()

	old := h.Cons(h.Fix(1), h.Null())
	c.Collect() // a major collection moves the pair to the old area
	if c.genIdx(h.Get(old)) != 1 {
		t.Fatal("pair did not leave the nursery")
	}
	young := h.Cons(h.Fix(2), h.Null())
	h.SetCar(old, young) // the barrier records old -> nursery

	if err := heap.VerifyCollector(h, c); err != nil {
		t.Fatalf("remembered heap should verify clean: %v", err)
	}
	c.rs.Clear() // seed the bug: the entry vanishes
	err := heap.VerifyCollector(h, c)
	if !errors.Is(err, heap.ErrRemsetMissing) {
		t.Fatalf("diagnosed %v, want heap.ErrRemsetMissing", err)
	}
}

// TestPeakLiveIsPeakPostCollectionOccupancy checks GCStats.PeakLive
// against an independent oracle: an after-collection hook sampling Live(),
// the total occupancy of every generation, after every collection of every
// kind (nursery, window, tenured and major).
func TestPeakLiveIsPeakPostCollectionOccupancy(t *testing.T) {
	for _, sizes := range [][]int{{512, 4096}, {512, 1024, 4096}} {
		for _, threshold := range []int{1, 3} {
			t.Run(fmt.Sprintf("gens=%d/tenure=%d", len(sizes), threshold), func(t *testing.T) {
				h := heap.New()
				c := New(h, sizes, WithExpansion(2), WithTenure(threshold))
				oracle := 0
				h.SetAfterGC(func() { oracle = max(oracle, c.Live()) })
				s := h.Scope()
				defer s.Close()

				acc := h.Null()
				for i := 0; i < 3000; i++ {
					acc = h.Cons(h.Fix(int64(i)), acc)
					if i%500 == 0 {
						acc = h.Null() // drop the live set so peaks come and go
					}
					gctest.Churn(h, 3)
				}
				g := c.GCStats()
				if g.Collections == g.MajorCollections || g.MajorCollections == 0 {
					t.Fatalf("want minor and major collections, got %d collections, %d major",
						g.Collections, g.MajorCollections)
				}
				if g.PeakLive != oracle {
					t.Errorf("PeakLive = %d, oracle max post-collection Live() = %d", g.PeakLive, oracle)
				}
			})
		}
	}
}
