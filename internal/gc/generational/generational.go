// Package generational names the conventional, youngest-first generational
// collector the paper compares against in Table 3: the two-generation
// configuration of internal/gc/multigen.
package generational

import (
	"rdgc/internal/gc/multigen"
	"rdgc/internal/heap"
)

// New creates the conventional generational collector: an ephemeral
// nursery of nursery words collected by stop-and-copy with wholesale
// promotion (Larceny's promoting collections move *all* live ephemeral
// objects, §8.4), feeding a dynamic old area managed as a semispace pair
// of old words each. A write barrier maintains the old-to-young remembered
// set. It is multigen.New with two generations, configured by the same
// options, and it installs itself as h's allocator and write barrier.
//
// Under the radioactive decay model this collector concentrates effort on
// exactly the generations with the *least* garbage, which is the paper's
// Section 3 argument for why it loses to a non-generational collector there.
func New(h *heap.Heap, nursery, old int, opts ...multigen.Option) *multigen.Collector {
	return multigen.New(h, []int{nursery, old}, opts...)
}
