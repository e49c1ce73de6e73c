package heap

import "fmt"

// Allocator is the policy side of a collector: it decides where objects are
// placed and when to collect. AllocRaw returns a pointer word to a freshly
// initialized object (header written, payload zeroed, birth stamp set when
// census tracking is on). It may run a garbage collection, so callers must
// hold every live reference in a Ref, never in a bare Word across the call.
type Allocator interface {
	AllocRaw(t Type, payloadWords int) Word
}

// Collector is the full interface the experiment harnesses drive.
type Collector interface {
	Allocator
	// Collect forces a (major) collection.
	Collect()
	// GCStats reports the collector's cumulative work counters.
	GCStats() *GCStats
	// Name identifies the collector in reports.
	Name() string
	// Live returns the words currently occupied in the collector's spaces
	// (live data plus any not-yet-collected garbage).
	Live() int
}

// Barrier observes mutator stores of pointers into heap objects. Generational
// collectors install a barrier to maintain their remembered sets.
type Barrier interface {
	// RecordWrite is called after the mutator stores val into a field of the
	// object that obj points to. val may be any word; barriers filter.
	RecordWrite(obj, val Word)
}

type nopBarrier struct{}

func (nopBarrier) RecordWrite(_, _ Word) {}

// Stats counts mutator-side activity. Allocated words are the repository's
// clock: every experiment measures time in words allocated.
type Stats struct {
	WordsAllocated   uint64
	ObjectsAllocated uint64
}

// GCStats counts collector-side work. The mark/cons ratio of a run is
// (WordsCopied+WordsMarked)/WordsAllocated.
type GCStats struct {
	Collections      int
	MajorCollections int
	WordsCopied      uint64 // words moved by copying collections
	WordsMarked      uint64 // words marked in place by mark/sweep collections
	WordsSwept       uint64 // words examined by sweep phases
	WordsPromoted    uint64 // words moved from a young to an old generation
	TotalPauseWords  uint64 // sum over collections of words traced
	MaxPauseWords    uint64
	RemsetPeak       int    // largest remembered set observed
	RemsetScanned    uint64 // remembered-set entries traced as roots
	PeakLive         int    // largest total occupancy across all spaces after every collection
	BarrierShades    uint64 // objects shaded gray by the incremental write barrier

	// Age-based tenuring and adaptive-policy accounting (tenure.go,
	// internal/policy). All three stay zero under wholesale promotion, so
	// threshold-1 runs report GCStats bit-identical to pre-tenuring ones.
	WordsTenured      uint64 // survivor words retained in the nursery by age routing
	TenureThreshold   int    // threshold in effect after the last tenured collection (0 = wholesale)
	PolicyAdaptations int    // knob changes applied by the adaptive controller

	// Pauses is the histogram of every mutator-visible pause: one entry per
	// stop-the-world collection, and in incremental mode one entry per mark
	// slice, termination phase, and on-demand sweep. Its TotalWords/MaxWords
	// mirror TotalPauseWords/MaxPauseWords.
	Pauses PauseHist
}

// NoteLive records a post-collection occupancy measurement.
func (g *GCStats) NoteLive(words int) {
	if words > g.PeakLive {
		g.PeakLive = words
	}
}

// MarkCons returns the cumulative mark/cons ratio against the given
// mutator statistics.
func (g *GCStats) MarkCons(s *Stats) float64 {
	if s.WordsAllocated == 0 {
		return 0
	}
	return float64(g.WordsCopied+g.WordsMarked) / float64(s.WordsAllocated)
}

// AddPause records the size of one collection pause.
func (g *GCStats) AddPause(words uint64) {
	g.TotalPauseWords += words
	if words > g.MaxPauseWords {
		g.MaxPauseWords = words
	}
	g.Pauses.Record(words)
}

// AddPause records one mutator-visible pause into g and, when a pause log is
// installed on the heap, streams the raw value to it. Collectors route every
// pause through here so `gcbench -pauselog` sees slices, termination phases,
// and on-demand sweeps exactly as the histogram does.
func (h *Heap) AddPause(g *GCStats, words uint64) {
	g.AddPause(words)
	if h.pauseLog != nil {
		h.pauseLog(words)
	}
}

// SetPauseLog installs f to receive every pause recorded via Heap.AddPause,
// in order; nil removes it. The raw stream is deliberately kept off GCStats
// so that struct stays comparable.
func (h *Heap) SetPauseLog(f func(words uint64)) { h.pauseLog = f }

// Heap is the substrate shared by every collector: the space table, the
// rooted reference stacks, the write-barrier hook, the symbol table, and
// the mutator statistics. A Heap is single-threaded by design, matching the
// stop-the-world collectors of the paper.
type Heap struct {
	Spaces []*Space
	Stats  Stats

	alloc   Allocator
	barrier Barrier

	// refs is the scoped handle stack; scopes is the stack of scope bases.
	refs   []Word
	scopes []int
	// globals are permanent roots (interned symbols, workload tables).
	globals []Word

	symtab   map[string]int // symbol name -> global index of symbol object
	symNames []string       // symbol id -> name

	// extraWords is 1 when census tracking reserves a hidden birth-stamp
	// word after each header, else 0. It is fixed at heap creation.
	extraWords int

	// gcWorkers is the tracing-worker count: 0 selects the sequential
	// engines, N >= 1 the parallel drains with N workers. New seeds it
	// from the package default; SetGCWorkers overrides per heap.
	gcWorkers int

	// gcLAB opts the parallel evacuator into per-worker allocation buffers
	// sized in whole blocks (parevac.go); it has no effect below 2 workers.
	// New seeds it from the package default; SetGCLAB overrides per heap.
	gcLAB bool

	// gcIncr opts collectors that support it into incremental collection:
	// marking proceeds in bounded slices between mutator operations behind a
	// Dijkstra insertion barrier, and sweeping happens block-by-block on the
	// allocation path. gcSlice is the per-slice mark budget in words. New
	// seeds both from the package defaults; SetGCIncremental overrides per
	// heap.
	gcIncr  bool
	gcSlice int

	// gcTenure is the promotion threshold supporting collectors read at
	// construction (1 = wholesale promotion; tenure.go); gcAdapt hands the
	// threshold and nursery trigger to the internal/policy controller. New
	// seeds both from the package defaults.
	gcTenure int
	gcAdapt  bool

	// pauseLog, when non-nil, receives the raw words-of-work of every pause
	// recorded through Heap.AddPause (the -pauselog stream).
	pauseLog func(words uint64)

	// collectorLabel is the installed allocator's Name(), captured for
	// pprof labels on parallel tracing workers.
	collectorLabel string

	// extraRoots lets collectors and instrumentation register additional
	// root-slot visitors (e.g. remembered-set tables held outside spaces).
	extraRoots []func(visit func(slot *Word))

	// hook fires from InitObject once the allocation clock reaches
	// hookNext; instrumentation (the lifetime census) uses it to sample at
	// precise epoch boundaries.
	hook     func()
	hookNext uint64

	// afterGC, when non-nil, runs every time a collector finishes a
	// collection (the verifier's hook). Collectors fire it via AfterGC at
	// the end of every collection routine, once the heap, remembered sets,
	// and renaming are back in their between-collections state.
	afterGC func()

	// sink, when non-nil, observes every mutator-level heap event (the
	// trace recorder's hook; see events.go). moved, when non-nil, observes
	// every object relocation performed by the shared Evacuator.
	sink  EventSink
	moved func(old, new Word)
}

// Option configures a Heap at creation.
type Option func(*Heap)

// WithCensus reserves a hidden per-object word holding the allocation time
// (in words) of the object, enabling lifetime censuses.
func WithCensus() Option { return func(h *Heap) { h.extraWords = 1 } }

// New creates an empty heap. Collectors add spaces and install themselves
// with SetAllocator.
func New(opts ...Option) *Heap {
	h := &Heap{
		barrier:   nopBarrier{},
		symtab:    make(map[string]int),
		gcWorkers: int(defaultGCWorkers.Load()),
		gcLAB:     defaultGCLAB.Load(),
		gcIncr:    defaultGCIncr.Load(),
		gcSlice:   DefaultGCSliceBudget(),
		gcTenure:  DefaultGCTenure(),
		gcAdapt:   defaultGCAdapt.Load(),
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// CensusEnabled reports whether objects carry birth stamps.
func (h *Heap) CensusEnabled() bool { return h.extraWords == 1 }

// ExtraWords returns the number of hidden words after each header (0 or 1).
func (h *Heap) ExtraWords() int { return h.extraWords }

// SetAllocator installs the collector that will service allocations.
func (h *Heap) SetAllocator(a Allocator) {
	h.alloc = a
	if n, ok := a.(interface{ Name() string }); ok {
		h.collectorLabel = n.Name()
	}
}

// SetBarrier installs the write barrier. Passing nil restores the no-op.
func (h *Heap) SetBarrier(b Barrier) {
	if b == nil {
		h.barrier = nopBarrier{}
		return
	}
	h.barrier = b
}

// SetAfterGC installs f to run at the end of every collection; nil removes
// it. Tests and the fuzz harness install a verifying callback here, so the
// default cost is one nil check per collection.
func (h *Heap) SetAfterGC(f func()) { h.afterGC = f }

// AfterGC fires the after-collection hook. Every collector calls this
// exactly when a collection's bookkeeping (renaming, remembered-set
// rebuilds, statistics) is complete and the heap satisfies its
// between-collections invariants.
func (h *Heap) AfterGC() {
	if h.afterGC != nil {
		h.afterGC()
	}
}

// AddRootSet registers an extra set of root slots visited by every trace.
func (h *Heap) AddRootSet(f func(visit func(slot *Word))) {
	h.extraRoots = append(h.extraRoots, f)
}

// VisitRoots applies visit to every root slot: the handle stack, the global
// table, and any collector-registered extras. Collectors call this at the
// start of every trace; whatever they write back into the slots (forwarded
// pointers) is what the mutator sees afterwards.
func (h *Heap) VisitRoots(visit func(slot *Word)) {
	for i := range h.refs {
		visit(&h.refs[i])
	}
	for i := range h.globals {
		visit(&h.globals[i])
	}
	for _, f := range h.extraRoots {
		f(visit)
	}
}

// LiveRefs returns the current handle-stack depth, exposed for tests.
func (h *Heap) LiveRefs() int { return len(h.refs) }

// Ref is a handle to a heap value: an index into the heap's rooted slots.
// Non-negative Refs live on the scoped handle stack; Refs below -1 are
// global. The zero Ref is only valid while its scope is open, so the
// constant InvalidRef (-1) is the "no value" sentinel.
type Ref int32

// InvalidRef is the "no ref" sentinel.
const InvalidRef Ref = -1

func (h *Heap) slot(r Ref) *Word {
	if r >= 0 {
		return &h.refs[r]
	}
	if r == InvalidRef {
		panic("heap: use of InvalidRef")
	}
	return &h.globals[-int(r)-2]
}

// Get returns the word currently held by r.
func (h *Heap) Get(r Ref) Word { return *h.slot(r) }

// Set overwrites the word held by r. It does not invoke the write barrier:
// Refs are roots, and root mutation needs no barrier.
func (h *Heap) Set(r Ref, w Word) {
	*h.slot(r) = w
	if h.sink != nil {
		h.sink.EvRootSet(r, w)
	}
}

// push adds w to the current handle scope and returns its Ref.
func (h *Heap) push(w Word) Ref {
	h.refs = append(h.refs, w)
	if h.sink != nil {
		h.sink.EvRootPush(w)
	}
	return Ref(len(h.refs) - 1)
}

// Global copies the value of r into a permanent root and returns its Ref.
func (h *Heap) Global(r Ref) Ref {
	return h.GlobalWord(h.Get(r))
}

// GlobalWord installs w directly as a permanent root.
func (h *Heap) GlobalWord(w Word) Ref {
	h.globals = append(h.globals, w)
	if h.sink != nil {
		h.sink.EvGlobal(w)
	}
	return Ref(-len(h.globals) - 1)
}

// Scope opens a handle scope. Every Ref created until the matching Close
// (or Return) is released together. Scopes must nest like a stack.
type Scope struct {
	h    *Heap
	base int
}

// Scope opens a new handle scope.
func (h *Heap) Scope() Scope {
	h.scopes = append(h.scopes, len(h.refs))
	return Scope{h: h, base: len(h.refs)}
}

func (s Scope) pop() {
	h := s.h
	if len(h.scopes) == 0 || h.scopes[len(h.scopes)-1] != s.base {
		panic("heap: scopes closed out of order")
	}
	h.scopes = h.scopes[:len(h.scopes)-1]
	h.refs = h.refs[:s.base]
	if h.sink != nil {
		h.sink.EvRootPopTo(s.base)
	}
}

// Close releases every Ref created inside the scope.
func (s Scope) Close() { s.pop() }

// Return closes the scope while preserving the value of r, which is pushed
// onto the parent scope. This is the idiom for returning a heap value from
// a Go function:
//
//	s := h.Scope()
//	...
//	return s.Return(result)
func (s Scope) Return(r Ref) Ref {
	w := s.h.Get(r)
	s.pop()
	return s.h.push(w)
}

// Return2 closes the scope while preserving two values, in order.
func (s Scope) Return2(a, b Ref) (Ref, Ref) {
	wa, wb := s.h.Get(a), s.h.Get(b)
	s.pop()
	return s.h.push(wa), s.h.push(wb)
}

// RefOf pushes an arbitrary word (usually an immediate) into the current
// scope and returns its handle.
func (h *Heap) RefOf(w Word) Ref { return h.push(w) }

// Dup pushes a copy of r into the current scope.
func (h *Heap) Dup(r Ref) Ref { return h.push(h.Get(r)) }

// allocObject is the common allocation path used by the typed constructors.
func (h *Heap) allocObject(t Type, payload int) Word {
	if h.alloc == nil {
		panic("heap: no allocator installed")
	}
	return h.alloc.AllocRaw(t, payload)
}

// InitObject writes a fresh object's header (and birth stamp) at offset off
// in space s and accounts for the allocation. Collectors call this from
// their AllocRaw implementations after reserving room; payload words are
// zeroed here. The returned word is the object pointer.
func (h *Heap) InitObject(s *Space, off int, t Type, payload int) Word {
	size := payload + h.extraWords
	s.Mem[off] = HeaderWord(t, size)
	if h.extraWords == 1 {
		s.Mem[off+1] = FixnumWord(int64(h.Stats.WordsAllocated))
	}
	clear(s.Mem[off+1+h.extraWords : off+1+size])
	h.Stats.WordsAllocated += uint64(1 + size)
	h.Stats.ObjectsAllocated++
	w := PtrWord(s.ID, off)
	if h.sink != nil {
		h.sink.EvAlloc(w, t, payload)
	}
	if h.hook != nil && h.Stats.WordsAllocated >= h.hookNext {
		h.hookNext = ^uint64(0) // the hook reschedules itself
		h.hook()
	}
	return w
}

// SetAllocHook installs f to run when the allocation clock next reaches at.
// The hook must call SetAllocHook again (or ScheduleHook) to keep firing.
// The freshly allocated object is fully initialized but not yet rooted when
// the hook runs, so whole-heap traces from inside the hook are safe but may
// miss that single object.
func (h *Heap) SetAllocHook(at uint64, f func()) {
	h.hook = f
	h.hookNext = at
}

// ScheduleHook moves the next firing time of the installed hook.
func (h *Heap) ScheduleHook(at uint64) { h.hookNext = at }

// BirthStamp returns the allocation time (in words) of the object w points
// to. It panics unless census tracking is enabled.
func (h *Heap) BirthStamp(w Word) uint64 {
	if h.extraWords == 0 {
		panic("heap: BirthStamp without WithCensus")
	}
	return uint64(FixnumVal(h.SpaceOf(w).Mem[PtrOff(w)+1]))
}

// Now returns the current time in allocated words.
func (h *Heap) Now() uint64 { return h.Stats.WordsAllocated }

func (h *Heap) String() string {
	return fmt.Sprintf("heap: %d spaces, %d words allocated, %d refs live",
		len(h.Spaces), h.Stats.WordsAllocated, len(h.refs))
}
