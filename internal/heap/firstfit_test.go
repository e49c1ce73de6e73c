package heap

import (
	"math/rand"
	"testing"
)

// firstFitOracle is FirstFit by linear scan: the first block at or after
// from whose effective bound (BlockWords while unswept, else MaxRun)
// admits n words.
func firstFitOracle(bt *BlockTable, from, n int) int {
	for b := from; b < len(bt.MaxRun); b++ {
		bound := int(bt.MaxRun[b])
		if bt.UnsweptAt(b) {
			bound = BlockWords
		}
		if bound >= n {
			return b
		}
	}
	return -1
}

// TestFirstFitMatchesLinearOracle drives blocked spaces of awkward shapes —
// one block, one partial block, block counts that are not powers of two,
// and a partial final block — through random carves, failed scans that
// tighten bounds, eager sweeps that rebuild the index, and lazy sweeps
// whose unswept blocks must read as BlockWords, and after every step
// requires FirstFit to agree with the linear scan for a spread of starting
// blocks and request sizes, and the verifier to accept the block table.
func TestFirstFitMatchesLinearOracle(t *testing.T) {
	for _, words := range []int{BlockWords, 300, 13 * BlockWords, 37*BlockWords + 133, 64 * BlockWords} {
		rng := rand.New(rand.NewSource(int64(words)))
		h := New()
		s := h.NewBlockedSpace("firstfit", words)
		bt := s.Blocks
		sw := NewSweeper(h)
		nb := s.NumBlocks()

		check := func(step int, what string) {
			t.Helper()
			for i := 0; i < 40; i++ {
				from := rng.Intn(nb + 1)
				n := 1 + rng.Intn(BlockWords)
				switch i {
				case 0:
					from, n = 0, 1
				case 1:
					from, n = 0, BlockWords
				case 2:
					from = nb - 1
				}
				if got, want := bt.FirstFit(from, n), firstFitOracle(bt, from, n); got != want {
					t.Fatalf("%d words, step %d (%s): FirstFit(%d, %d) = %d, linear scan %d",
						words, step, what, from, n, got, want)
				}
			}
			spec := VerifySpec{Live: []*Space{s}}
			if sw.LazyPending() > 0 {
				spec.SweepPending = func(s *Space, off int) bool { return s.Blocks.UnsweptAt(off >> BlockShift) }
			}
			if err := Verify(h, spec); err != nil {
				t.Fatalf("%d words, step %d (%s): %v", words, step, what, err)
			}
		}
		markSome := func() {
			WalkSpace(s, func(off int, hdr Word) bool {
				if HeaderType(hdr) != TFree && rng.Intn(3) > 0 {
					s.SetMarkAt(off)
				}
				return true
			})
		}

		check(0, "fresh")
		for step := 1; step <= 300; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op < 6: // carve (sweeping on demand first), or tighten on failure
				what = "carve"
				b := rng.Intn(nb)
				sw.EnsureSwept(s, b)
				n := 1 + rng.Intn(40)
				if rng.Intn(4) == 0 {
					n = 1 + rng.Intn(BlockWords)
				}
				if off, ok := s.AllocFromBlock(b, n); ok {
					s.Mem[off] = HeaderWord(TVector, n-1)
					for i := 1; i < n; i++ {
						s.Mem[off+i] = FixnumWord(int64(i))
					}
				}
			case op < 7: // eager sweep: leaves set, then one rebuild
				what = "sweep"
				sw.FinishLazy()
				markSome()
				h.SetGCWorkers([]int{0, 2}[rng.Intn(2)])
				sw.Sweep(s)
			case op < 8: // arm a lazy sweep: every block reads BlockWords
				what = "begin-lazy"
				sw.FinishLazy()
				markSome()
				sw.BeginLazy(s)
			default: // retire pending blocks one at a time
				what = "lazy-step"
				if rng.Intn(2) == 0 {
					sw.SweepPendingBlock()
				} else {
					sw.EnsureSwept(s, rng.Intn(nb))
				}
			}
			check(step, what)
		}
	}
}

// TestFirstFitSingleBlock pins the edge of a one-leaf tree, where the root
// is the only leaf.
func TestFirstFitSingleBlock(t *testing.T) {
	h := New()
	s := h.NewBlockedSpace("one", 100)
	bt := s.Blocks
	if got := bt.FirstFit(0, 100); got != 0 {
		t.Fatalf("FirstFit(0, 100) = %d on a fresh 100-word block, want 0", got)
	}
	if got := bt.FirstFit(0, 101); got != -1 {
		t.Fatalf("FirstFit(0, 101) = %d, want -1", got)
	}
	if got := bt.FirstFit(1, 1); got != -1 {
		t.Fatalf("FirstFit(1, 1) = %d past the last block, want -1", got)
	}
}

// TestFirstFitWarmZeroAllocs guards the index's lookup and update paths: a
// first-fit jump and a bound tightening must not allocate.
func TestFirstFitWarmZeroAllocs(t *testing.T) {
	h := New()
	s := h.NewBlockedSpace("warm", 37*BlockWords+133)
	bt := s.Blocks
	for b := 0; b < s.NumBlocks(); b += 2 {
		bt.setBound(b, int32(b%7))
	}
	b := 0
	if n := testing.AllocsPerRun(100, func() {
		b = bt.FirstFit(b%s.NumBlocks(), 200) + 1
		bt.setBound(b%s.NumBlocks(), int32(b%300))
	}); n != 0 {
		t.Errorf("warm FirstFit allocates %.1f times per run, want 0", n)
	}
}
