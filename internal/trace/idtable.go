package trace

import "rdgc/internal/heap"

// idTable maps the current address of every recorded object to its
// allocation ID. It is a side table shaped like the heap: one []uint64 per
// space, indexed by the header offset, holding ID+1 so that 0 means "no
// recorded object starts here". Both the Recorder and the Replayer keep one
// current from the heap's move hook (get, clear the old address, set the new
// one), so resolving an address is two slice indexings.
//
// Entries of dead objects are never removed: like any stale address they
// stay until a move clears them or an allocation at the same address
// overwrites them. A space's slice grows lazily to the highest offset set,
// clamped to the space's capacity, so the table costs at most one uint64
// per word of each space that ever held a recorded object — a large-object
// space, holding its one object at offset 0, costs one slot.
type idTable struct {
	h      *heap.Heap
	spaces [][]uint64 // space ID -> header offset -> allocation ID + 1
}

// get returns the ID of the recorded object whose header w points at.
// Anything else — an immediate, a non-canonical pointer, an offset or
// space never set — does not resolve.
func (t *idTable) get(w heap.Word) (uint64, bool) {
	sid, off := heap.PtrSpace(w), heap.PtrOff(w)
	if heap.PtrWord(sid, off) != w || int(sid) >= len(t.spaces) {
		return 0, false
	}
	tab := t.spaces[sid]
	if off >= len(tab) || tab[off] == 0 {
		return 0, false
	}
	return tab[off] - 1, true
}

// set records that the object with the given ID now starts at pointer w,
// overwriting whatever entry was there.
func (t *idTable) set(w heap.Word, id uint64) {
	sid, off := heap.PtrSpace(w), heap.PtrOff(w)
	if int(sid) >= len(t.spaces) || off >= len(t.spaces[sid]) {
		t.grow(sid, off)
	}
	t.spaces[sid][off] = id + 1
}

// move carries the ID recorded at old over to new, reporting it; it does
// nothing when old does not resolve.
func (t *idTable) move(old, new heap.Word) (uint64, bool) {
	id, ok := t.get(old)
	if ok {
		t.spaces[heap.PtrSpace(old)][heap.PtrOff(old)] = 0
		t.set(new, id)
	}
	return id, ok
}

// grow makes room for offset off in space sid: doubling, never past the
// space's capacity but always past off.
func (t *idTable) grow(sid heap.SpaceID, off int) {
	if int(sid) >= len(t.spaces) {
		t.spaces = append(t.spaces, make([][]uint64, int(sid)+1-len(t.spaces))...)
	}
	old := t.spaces[sid]
	n := max(min(2*len(old), t.h.Spaces[sid].Cap()), off+1)
	tab := make([]uint64, n)
	copy(tab, old)
	t.spaces[sid] = tab
}
