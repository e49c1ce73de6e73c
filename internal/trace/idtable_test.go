package trace

import (
	"math/rand"
	"testing"

	"rdgc/internal/heap"
)

// TestIDTableMatchesMapOracle drives an idTable and a map[heap.Word]uint64
// — the identity representation the table replaced — through the same
// random allocations, moves and lookups, and requires identical answers
// after every operation. Lookups probe space IDs beyond the table, offsets
// past a space's current slice, immediates and non-canonical pointer
// words; one space is Resized larger mid-run so the table must grow across
// the resize.
func TestIDTableMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := heap.New()
		spaces := []*heap.Space{
			h.NewSpace("a", 37),
			h.NewSpace("b", 300),
			h.NewSpace("c", 4096),
		}
		tab := idTable{h: h}
		oracle := make(map[heap.Word]uint64)
		var keys []heap.Word
		var next uint64

		randPtr := func() heap.Word {
			s := spaces[rng.Intn(len(spaces))]
			return heap.PtrWord(s.ID, rng.Intn(s.Cap()))
		}
		probe := func() heap.Word {
			switch rng.Intn(6) {
			case 0:
				return heap.PtrWord(heap.SpaceID(len(spaces)+rng.Intn(4)), rng.Intn(64))
			case 1:
				s := spaces[rng.Intn(len(spaces))]
				return heap.PtrWord(s.ID, s.Cap()+rng.Intn(1000))
			case 2:
				return heap.FixnumWord(int64(rng.Intn(1000)))
			case 3:
				if len(keys) > 0 {
					return keys[rng.Intn(len(keys))] | 1<<60
				}
			case 4:
				if len(keys) > 0 {
					return keys[rng.Intn(len(keys))]
				}
			}
			return randPtr()
		}

		for op := 0; op < 20000; op++ {
			if op == 10000 {
				spaces[0].Resize(2 * spaces[0].Cap())
			}
			switch r := rng.Intn(10); {
			case r < 4:
				w := randPtr()
				tab.set(w, next)
				oracle[w] = next
				keys = append(keys, w)
				next++
			case r < 7:
				old := probe()
				if len(keys) > 0 && rng.Intn(2) == 0 {
					old = keys[rng.Intn(len(keys))]
				}
				if heap.PtrWord(heap.PtrSpace(old), heap.PtrOff(old)) != old {
					continue // the move hook only ever sees heap pointers
				}
				nw := randPtr()
				id, ok := tab.move(old, nw)
				wantID, wantOK := oracle[old]
				if wantOK {
					delete(oracle, old)
					oracle[nw] = wantID
					keys = append(keys, nw)
				}
				if id != wantID || ok != wantOK {
					t.Fatalf("seed %d op %d: move(%#x,%#x) = %d,%v; map says %d,%v",
						seed, op, uint64(old), uint64(nw), id, ok, wantID, wantOK)
				}
			default:
				w := probe()
				id, ok := tab.get(w)
				wantID, wantOK := oracle[w]
				if id != wantID || ok != wantOK {
					t.Fatalf("seed %d op %d: get(%#x) = %d,%v; map says %d,%v",
						seed, op, uint64(w), id, ok, wantID, wantOK)
				}
			}
		}
		for w, want := range oracle {
			if id, ok := tab.get(w); !ok || id != want {
				t.Fatalf("seed %d: final get(%#x) = %d,%v; map says %d", seed, uint64(w), id, ok, want)
			}
		}
		for _, s := range spaces {
			if n := len(tab.spaces[s.ID]); n > s.Cap() {
				t.Fatalf("seed %d: space %q table has %d slots for %d words", seed, s.Name, n, s.Cap())
			}
		}
	}
}

// TestIDTableLargeObjectSpace: a large object lives alone at offset 0 of
// its own space, so it costs one table slot however big the space is, and
// a pooled space reused by a new large object resolves to the new ID.
func TestIDTableLargeObjectSpace(t *testing.T) {
	h := heap.New()
	h.NewSpace("filler", 64)
	los := heap.NewLargeObjectSpace(h, "los")
	tab := idTable{h: h}

	s := los.Alloc(4 * heap.LargeObjectWords)
	w := heap.PtrWord(s.ID, 0)
	tab.set(w, 7)
	if n := len(tab.spaces[s.ID]); n != 1 {
		t.Fatalf("large object space uses %d table slots, want 1", n)
	}

	los.Sweep() // unmarked: the space returns to the pool
	if los.PooledSpaces() != 1 {
		t.Fatalf("pooled spaces = %d, want 1", los.PooledSpaces())
	}
	if id, ok := tab.get(w); !ok || id != 7 {
		t.Fatalf("stale entry before reuse: got %d,%v, want 7,true (the map kept it too)", id, ok)
	}
	if again := los.Alloc(2 * heap.LargeObjectWords); again != s {
		t.Fatalf("pool did not hand back space %d", s.ID)
	}
	tab.set(w, 8)
	if id, ok := tab.get(w); !ok || id != 8 {
		t.Fatalf("reused large-object space: got %d,%v, want 8,true", id, ok)
	}
	if id, ok := tab.get(heap.PtrWord(s.ID, 1)); ok {
		t.Fatalf("offset 1 of a large-object space resolved to %d", id)
	}
}
