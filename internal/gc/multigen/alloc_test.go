package multigen

import (
	"testing"

	"rdgc/internal/heap"
)

// fillNursery hand-allocates a chain of n pairs directly in the nursery
// (car = fixnum, cdr = previous pair), bypassing the Go-level allocation the
// Ref API would do, and returns the head pointer.
func fillNursery(tb testing.TB, c *Collector, h *heap.Heap, n int) heap.Word {
	prev := heap.NullWord
	for i := 0; i < n; i++ {
		off, ok := c.gens[0].Bump(3)
		if !ok {
			tb.Fatalf("nursery too small for %d pairs", n)
		}
		w := h.InitObject(c.gens[0], off, heap.TPair, 2)
		c.gens[0].Mem[off+1] = heap.FixnumWord(int64(i))
		c.gens[0].Mem[off+2] = prev
		prev = w
	}
	return prev
}

// TestMinorSteadyStateZeroAllocs guards the nursery-collection hot paths:
// once warmed up, a collection that evacuates roots, scans a remembered set
// and then clears or refilters it must not allocate any Go objects. The
// cases cover the two-generation wholesale minor (remembered set cleared),
// the two-generation tenured minor (refiltered, promoted objects rescanned)
// and the three-generation window-0 collection (refiltered).
func TestMinorSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
		opts  []Option
	}{
		{"two-gens", []int{2048, 1 << 16}, nil},
		{"two-gens-tenured", []int{2048, 1 << 16}, []Option{WithTenure(2)}},
		{"three-gens", []int{2048, 1 << 15, 1 << 16}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := heap.New()
			h.SetGCTenure(1) // each case names its own policy, whatever the environment
			h.SetGCAdaptive(false)
			c := New(h, tc.sizes, tc.opts...)

			// One permanently live object in the oldest generation whose
			// car points into the nursery, giving every collection a
			// remembered-set entry to scan. Its cdr holds the previous
			// batch, which a tenured minor retains once and then promotes.
			h.GlobalWord(fillNursery(t, c, h, 1))
			c.Collect()
			var oldObj heap.Word
			h.VisitRoots(func(slot *heap.Word) {
				if heap.IsPtr(*slot) {
					oldObj = *slot
				}
			})
			if c.genIdx(oldObj) != len(c.gens)-1 {
				t.Fatalf("expected the rooted pair in the oldest generation, got %v", oldObj)
			}

			cycle := func() {
				head := fillNursery(t, c, h, 100)
				fields := h.SpaceOf(oldObj).Mem[heap.PtrOff(oldObj):]
				fields[2] = fields[1]
				fields[1] = head
				c.RecordWrite(oldObj, fields[2])
				c.RecordWrite(oldObj, head)
				c.collectUpTo(0)
			}
			cycle() // warmup: hash-set table, keepBuf and pause histogram size themselves
			cycle()

			before := c.stats.Collections
			allocs := testing.AllocsPerRun(20, cycle)
			if allocs != 0 {
				t.Errorf("steady-state collection allocates %.0f objects/run, want 0", allocs)
			}
			if c.stats.Collections == before || c.stats.WordsPromoted == 0 {
				t.Fatal("no promotion happened; the guard must measure real collections")
			}
			if c.stats.MajorCollections != 1 {
				t.Fatalf("%d major collections, want only the setup one", c.stats.MajorCollections)
			}
		})
	}
}
