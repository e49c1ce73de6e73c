// Package hybrid implements the Larceny-style composition of Section 8: a
// conventional stop-and-copy ephemeral area (nursery) whose promoting
// collections move *all* live objects into a non-predictive dynamic area
// managed by the step machinery of internal/core.
//
// Two remembered sets are kept separate, as §8.4 prescribes: set A records
// dynamic-area objects that point into the ephemeral area (situations 3),
// and set B records objects in steps 1..j that point into steps j+1..k
// (situations 5 and 6). Situation 5 is detected when promotion places
// objects into steps 1..j; situations 1, 2 and 4 cannot arise because
// promoting collections empty the nursery and the recommended j policy
// keeps steps 1..j empty after a non-predictive collection.
package hybrid

import (
	"fmt"

	"rdgc/internal/core"
	"rdgc/internal/heap"
	"rdgc/internal/policy"
	"rdgc/internal/remset"
)

// Collector is the hybrid ephemeral + non-predictive collector.
type Collector struct {
	h       *heap.Heap
	nursery *heap.Space
	st      *core.Steps

	rsA remset.Set // dynamic/static objects pointing into the nursery
	rsB remset.Set // steps-1..j or static objects pointing into the steps

	// statics are the never-collected spaces that explicit full
	// collections (§8.4) promote all live storage into.
	statics  []*heap.Space
	inStatic map[heap.SpaceID]bool

	policy    core.JPolicy
	allowGrow bool

	// Persistent machinery for the collection hot paths, created once in New
	// so steady-state promoting collections allocate nothing: the Cheney
	// engine (re-armed with SetFrom per collection), the remembered-set
	// root visitors, and a reusable target-list buffer.
	evac        *heap.Evacuator
	rsARoot     func(obj heap.Word)
	promoRegion func(s *heap.Space, from, to int)
	npScan      func(obj heap.Word)
	npExtra     func(evac func(slot *heap.Word))
	npEvac      func(slot *heap.Word)
	rememberB   func(obj heap.Word)
	rsAPromoted func(obj heap.Word)
	staticKeep  func(obj heap.Word)
	targetsBuf  []*heap.Space
	staticBuf   []heap.Word

	stats heap.GCStats

	// Age-based tenuring (heap/tenure.go): promoting collections retain
	// under-threshold survivors in the nurseryTo shadow instead of moving
	// them to the dynamic area. All nil/zero under the default threshold
	// of 1, where minor() runs the wholesale §8.4 path unchanged.
	threshold  int
	trigger    int
	carry      int
	nurseryTo  *heap.Space
	youngBuf   []*heap.Space
	keepBuf    []heap.Word
	rsARootTen func(obj heap.Word)
	ctrl       *policy.Controller
	adaptOn    bool
}

// Option configures the collector.
type Option func(*Collector)

// WithPolicy substitutes the j policy (default core.Recommended).
func WithPolicy(p core.JPolicy) Option { return func(c *Collector) { c.policy = p } }

// WithRemsets substitutes both remembered-set representations.
func WithRemsets(a, b remset.Set) Option {
	return func(c *Collector) { c.rsA, c.rsB = a, b }
}

// WithGrowth permits the dynamic area to grow (by whole steps) when
// survivors overflow a non-predictive collection or promotion cannot fit.
func WithGrowth() Option { return func(c *Collector) { c.allowGrow = true } }

// WithTenure sets the promotion threshold explicitly, overriding the
// heap's GCTenure setting (1 = wholesale, heap.TenureNever = never).
func WithTenure(threshold int) Option {
	if threshold < 1 {
		panic("hybrid: tenure threshold must be at least 1")
	}
	return func(c *Collector) { c.threshold = threshold }
}

// WithAdaptive puts the threshold and nursery trigger under the
// internal/policy feedback controller, overriding the heap's GCAdaptive
// setting.
func WithAdaptive() Option {
	return func(c *Collector) { c.adaptOn = true }
}

// New creates a hybrid collector with the given nursery size and k dynamic
// steps of stepWords each, installing itself as h's allocator and barrier.
func New(h *heap.Heap, nurseryWords, k, stepWords int, opts ...Option) *Collector {
	if nurseryWords/2 > stepWords {
		panic("hybrid: step size must be at least half the nursery size so any promoted object fits a step")
	}
	c := &Collector{
		h:        h,
		nursery:  h.NewSpace("nursery", nurseryWords),
		st:       core.NewSteps(h, k, stepWords),
		rsA:      remset.NewHashSet(),
		rsB:      remset.NewHashSet(),
		inStatic: make(map[heap.SpaceID]bool),
		policy:   core.Recommended{},
	}
	for _, o := range opts {
		o(c)
	}
	c.evac = heap.NewEvacuator(h, nil)
	c.rsARoot = func(obj heap.Word) {
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.evac.Slot())
	}
	c.promoRegion = func(s *heap.Space, from, to int) { c.scanPromoted(s, from) }
	c.npScan = func(obj heap.Word) {
		// Remembered objects in the uncollected steps 1..j may hold the only
		// pointers into the nursery (set A) or into steps j+1..k (set B);
		// their fields are roots. Entries located inside the collected region
		// must be skipped: they are scanned when copied, and their old
		// headers may already hold forwarding pointers.
		if c.st.InOld(obj) || heap.PtrSpace(obj) == c.nursery.ID {
			return
		}
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.npEvac)
	}
	c.npExtra = func(evac func(slot *heap.Word)) {
		c.npEvac = evac
		c.rsA.ForEach(c.npScan)
		c.rsB.ForEach(c.npScan)
		c.npEvac = nil
	}
	c.rememberB = c.rsB.Remember
	c.rsAPromoted = func(obj heap.Word) {
		// A promoting collection moves every nursery referent into the
		// steps, so a set-A entry may now hold pointers that set B must
		// track: young-step objects pointing into steps j+1..k, and static
		// objects pointing into any step. The entry itself never moves (set
		// A records objects *outside* the nursery), so its updated slots can
		// be rescanned in place.
		if c.st.InYoung(obj) {
			if c.pointsInto(obj, c.st.InOld) {
				c.rsB.Remember(obj)
			}
			return
		}
		if c.inStatic[heap.PtrSpace(obj)] && c.pointsInto(obj, c.inAnyStep) {
			c.rsB.Remember(obj)
		}
	}
	c.staticKeep = func(obj heap.Word) {
		if c.inStatic[heap.PtrSpace(obj)] && c.pointsInto(obj, c.inAnyStep) {
			c.staticBuf = append(c.staticBuf, obj)
		}
	}
	c.st.SetJ(c.policy.ChooseJ(k, k))
	if c.threshold == 0 {
		c.threshold = h.GCTenure()
	}
	if !c.adaptOn {
		c.adaptOn = h.GCAdaptive()
	}
	c.trigger = nurseryWords
	if c.adaptOn {
		c.ctrl = policy.New(policy.Config{})
	}
	if c.threshold > 1 || c.ctrl != nil {
		c.nurseryTo = h.NewSpace("nursery-to", nurseryWords)
		c.nursery.EnsureAgeTable()
		c.nurseryTo.EnsureAgeTable()
		c.youngBuf = []*heap.Space{c.nurseryTo}
		c.rsARootTen = func(obj heap.Word) {
			c.stats.RemsetScanned++
			heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.evac.SlotTenured())
		}
	}
	h.SetAllocator(c)
	h.SetBarrier(c)
	return c
}

// tenured reports whether promoting collections run the age-routing engine.
func (c *Collector) tenured() bool { return c.nurseryTo != nil }

// TenureThreshold implements heap.Tenurer.
func (c *Collector) TenureThreshold() int { return c.threshold }

// YoungSpaces implements heap.Tenurer: the nursery, then the survivor
// shadow when tenuring is armed.
func (c *Collector) YoungSpaces() []*heap.Space {
	if c.nurseryTo == nil {
		return []*heap.Space{c.nursery}
	}
	return []*heap.Space{c.nursery, c.nurseryTo}
}

// Adaptive implements heap.Tenurer.
func (c *Collector) Adaptive() bool { return c.ctrl != nil }

// Name implements heap.Collector.
func (c *Collector) Name() string { return "hybrid (ephemeral + non-predictive)" }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Steps exposes the dynamic-area machinery for tests and experiments.
func (c *Collector) Steps() *core.Steps { return c.st }

// Live returns the words in use in the nursery, dynamic area, and static
// area.
func (c *Collector) Live() int {
	return c.nursery.Used() + c.st.LiveStepWords() + c.StaticWords()
}

// RemsetLens returns the current sizes of remembered sets A and B.
func (c *Collector) RemsetLens() (a, b int) { return c.rsA.Len(), c.rsB.Len() }

// VerifySpec implements heap.Verifiable: the nursery, the k steps, and the
// static spaces are live (shadows are scratch), and the two remembered sets
// must cover the §8.4 situations the write barrier records — set A for
// pointers into the nursery from outside it, set B for young-step pointers
// into the collected steps and static pointers into any step.
func (c *Collector) VerifySpec() heap.VerifySpec {
	live := []*heap.Space{c.nursery}
	for p := 0; p < c.st.K(); p++ {
		live = append(live, c.st.Step(p))
	}
	live = append(live, c.statics...)
	return heap.VerifySpec{
		Live: live,
		Remsets: []heap.RemsetRule{{
			Name: "A: outside->nursery",
			Needs: func(obj, val heap.Word) bool {
				return heap.PtrSpace(obj) != c.nursery.ID && heap.PtrSpace(val) == c.nursery.ID
			},
			Has: c.rsA.Contains,
		}, {
			Name: "B: young->old, static->step",
			Needs: func(obj, val heap.Word) bool {
				if c.st.InYoung(obj) && c.st.InOld(val) {
					return true
				}
				return c.inStatic[heap.PtrSpace(obj)] && c.st.PosOf(val) >= 0
			},
			Has: c.rsB.Contains,
		}},
	}
}

// RecordWrite implements heap.Barrier. Set A records pointers into the
// nursery from anywhere outside it; set B records pointers into the
// collected steps from the uncollected young steps (situations 5 and 6)
// and pointers into *any* step from the static area, which explicit full
// collections also need as roots.
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if !heap.IsPtr(val) {
		return
	}
	if heap.PtrSpace(val) == c.nursery.ID {
		if heap.PtrSpace(obj) != c.nursery.ID {
			c.rsA.Remember(obj)
		}
		return
	}
	if c.st.InYoung(obj) && c.st.InOld(val) {
		c.rsB.Remember(obj)
		return
	}
	if c.inStatic[heap.PtrSpace(obj)] && c.st.PosOf(val) >= 0 {
		c.rsB.Remember(obj)
	}
}

// AllocRaw implements heap.Allocator. Objects too large for the nursery are
// allocated directly in the dynamic area.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	if total > c.nursery.Cap()/2 {
		return c.allocDynamic(t, payload, total)
	}
	if c.nursery.Top+total > c.trigger {
		// Same condition as a failed Bump when the trigger sits at the
		// nursery cap (the wholesale default); the adaptive controller may
		// pull it lower.
		c.minor()
	}
	off, ok := c.nursery.Bump(total)
	if !ok && c.tenured() {
		// Retained survivors can leave too little room even after a
		// promoting collection; a non-predictive collection empties the
		// nursery wholesale and guarantees progress.
		c.npCollect()
		off, ok = c.nursery.Bump(total)
	}
	if !ok {
		panic(fmt.Sprintf("hybrid: nursery cannot hold %d words", total))
	}
	return c.h.InitObject(c.nursery, off, t, payload)
}

func (c *Collector) allocDynamic(t heap.Type, payload, total int) heap.Word {
	if total > c.st.StepWords {
		panic(fmt.Sprintf("hybrid: object of %d words exceeds the step size %d", total, c.st.StepWords))
	}
	for attempt := 0; ; attempt++ {
		if s, off, ok := c.st.Bump(total); ok {
			w := c.h.InitObject(s, off, t, payload)
			return w
		}
		if attempt > 0 {
			if !c.allowGrow {
				panic("hybrid: dynamic area full immediately after collection")
			}
			c.st.AddSteps(1)
			continue
		}
		c.npCollect()
	}
}

// minor runs a promoting collection. Following §8.4, Larceny decides up
// front whether *all* survivors go into the generation comprising steps
// j+1..k or all into steps 1..j — never some into each. The old region is
// preferred; when it lacks worst-case headroom the survivors go to the
// young steps (creating situation-5 remembered-set entries); when neither
// region alone has room, a non-predictive collection (which itself empties
// the nursery) runs instead.
func (c *Collector) minor() {
	if c.tenured() {
		c.minorTenured()
		return
	}
	var targets []*heap.Space
	intoYoung := false
	if free := c.regionFree(c.st.J(), c.st.K()); free >= c.nursery.Used() {
		targets = c.regionTargets(c.st.J(), c.st.K())
	} else if free := c.regionFree(0, c.st.J()); free >= c.nursery.Used() {
		targets = c.regionTargets(0, c.st.J())
		intoYoung = true
	} else {
		c.npCollect()
		return
	}
	e := c.evac
	e.SetFrom(c.nursery)
	e.Begin(targets...)
	e.EvacuateRoots()
	c.rsA.ForEach(c.rsARoot)
	e.Drain()

	// Promotion turned nursery pointers held by set-A entries into step
	// pointers; migrate the entries that set B must now cover before the
	// set empties (the transition §8.4 calls situation 3 becoming 5 or 6).
	c.rsA.ForEach(c.rsAPromoted)

	c.nursery.Reset()
	c.rsA.Clear() // the nursery is empty; no pointers into it remain
	c.st.RecomputeAllocIdx()

	if intoYoung {
		// Situation 5: promoted objects pointing into steps j+1..k enter
		// remembered set B. Only the freshly copied regions need scanning,
		// and the paper notes the marginal cost of this test is small.
		e.CopiedRegions(c.promoRegion)
	}

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.notePeaks()
	c.h.AfterGC()
}

// minorTenured runs a promoting collection with age routing: survivors
// younger than the threshold flip into the nursery shadow, the rest go to
// the dynamic area under the same all-into-old / all-into-young region
// decision the wholesale path makes. Because retained survivors stay in
// the (new) nursery, remembered set A is refiltered rather than cleared,
// and the freshly promoted regions are scanned for pointers back into it.
func (c *Collector) minorTenured() {
	var targets []*heap.Space
	intoYoung := false
	if free := c.regionFree(c.st.J(), c.st.K()); free >= c.nursery.Used() {
		targets = c.regionTargets(c.st.J(), c.st.K())
	} else if free := c.regionFree(0, c.st.J()); free >= c.nursery.Used() {
		targets = c.regionTargets(0, c.st.J())
		intoYoung = true
	} else {
		c.npCollect()
		return
	}
	fresh := c.nursery.Top - c.carry
	e := c.evac
	e.SetFrom(c.nursery)
	e.BeginTenured(c.threshold, c.youngBuf, targets...)
	e.EvacuateRootsTenured()
	c.rsA.ForEach(c.rsARootTen)
	e.DrainTenured()

	// Promotion turned some nursery pointers held by set-A entries into
	// step pointers; migrate the entries set B must now cover (the §8.4
	// situation 3 becoming 5 or 6). Entries themselves never move.
	c.rsA.ForEach(c.rsAPromoted)

	c.nursery.Reset()
	c.nursery, c.nurseryTo = c.nurseryTo, c.nursery
	c.youngBuf[0] = c.nurseryTo
	c.carry = c.nursery.Top
	c.refilterRsA()
	c.rememberPromoted()
	c.st.RecomputeAllocIdx()

	if intoYoung {
		// Situation 5: promoted objects pointing into steps j+1..k enter
		// remembered set B.
		e.CopiedRegions(c.promoRegion)
	}

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsPromoted
	c.stats.WordsTenured += e.WordsRetained
	c.stats.TenureThreshold = c.threshold
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.notePeaks()
	if c.ctrl != nil {
		c.threshold, c.trigger = c.ctrl.Step(fresh, e, c.nursery, &c.stats)
	}
	c.h.AfterGC()
}

// refilterRsA drops set-A entries that no longer point into the
// (post-flip) nursery. Entries live outside the nursery and do not move
// in a promoting collection, so survivors keep their addresses.
func (c *Collector) refilterRsA() {
	keep := c.keepBuf[:0]
	nurseryID := c.nursery.ID
	found := false
	probe := func(slot *heap.Word) {
		if !found && heap.IsPtr(*slot) && heap.PtrSpace(*slot) == nurseryID {
			found = true
		}
	}
	c.rsA.ForEach(func(obj heap.Word) {
		found = false
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), probe)
		if found {
			keep = append(keep, obj)
		}
	})
	c.rsA.Clear()
	for _, w := range keep {
		c.rsA.Remember(w)
	}
	c.keepBuf = keep[:0]
}

// rememberPromoted scans the objects this collection promoted into the
// dynamic area: any that reference a retained nursery survivor are
// outside-to-nursery pointers the barrier never saw (both ends moved
// during the collection), so they enter set A. Must run after the flip.
func (c *Collector) rememberPromoted() {
	nurseryID := c.nursery.ID
	found := false
	probe := func(slot *heap.Word) {
		if !found && heap.IsPtr(*slot) && heap.PtrSpace(*slot) == nurseryID {
			found = true
		}
	}
	c.evac.CopiedRegions(func(s *heap.Space, lo, hi int) {
		for off := lo; off < hi; {
			hdr := s.Mem[off]
			if heap.HeaderType(hdr) == heap.TFree {
				off += heap.ObjWords(hdr)
				continue
			}
			found = false
			heap.ScanObject(s, off, probe)
			if found {
				c.rsA.Remember(heap.PtrWord(s.ID, off))
			}
			off += heap.ObjWords(hdr)
		}
	})
}

// regionFree sums free words in logical step positions [lo, hi).
func (c *Collector) regionFree(lo, hi int) int {
	n := 0
	for p := lo; p < hi; p++ {
		n += c.st.Step(p).Free()
	}
	return n
}

// regionTargets returns the steps in positions [lo, hi) that have free
// space, highest-numbered first (the paper's promotion order). The result
// shares the collector's reusable buffer and is valid until the next call.
func (c *Collector) regionTargets(lo, hi int) []*heap.Space {
	out := c.targetsBuf[:0]
	for p := hi - 1; p >= lo; p-- {
		if c.st.Step(p).Free() > 0 {
			out = append(out, c.st.Step(p))
		}
	}
	c.targetsBuf = out
	return out
}

// inAnyStep reports whether pointer w targets any dynamic-area step.
func (c *Collector) inAnyStep(w heap.Word) bool { return c.st.PosOf(w) >= 0 }

// pointsInto reports whether the object obj contains a pointer satisfying
// the region predicate.
func (c *Collector) pointsInto(obj heap.Word, in func(heap.Word) bool) bool {
	found := false
	heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), func(slot *heap.Word) {
		if !found && heap.IsPtr(*slot) && in(*slot) {
			found = true
		}
	})
	return found
}

// scanPromoted adds to remembered set B the objects in s between offsets
// from and s.Top that contain a pointer into steps j+1..k.
func (c *Collector) scanPromoted(s *heap.Space, from int) {
	for off := from; off < s.Top; {
		hdr := s.Mem[off]
		if heap.HeaderType(hdr) == heap.TFree {
			// Allocation-buffer filler left by a parallel copy: dead space,
			// nothing to remember.
			off += heap.ObjWords(hdr)
			continue
		}
		found := false
		heap.ScanObject(s, off, func(slot *heap.Word) {
			if !found && heap.IsPtr(*slot) && c.st.InOld(*slot) {
				found = true
			}
		})
		if found {
			c.rsB.Remember(heap.PtrWord(s.ID, off))
		}
		off += heap.ObjWords(hdr)
	}
}

// npCollect runs one non-predictive collection of steps j+1..k, evacuating
// the nursery along with it ("a non-predictive collection always promotes
// all live objects out of the ephemeral area", §8.4).
func (c *Collector) npCollect() {
	copied := c.st.Collect(c.nursery, c.npExtra, c.allowGrow)

	c.nursery.Reset()
	c.rsA.Clear()
	// ScanYoungForOldPointers below rebuilds only the young-step half of
	// set B; static-area entries must survive the clear, since statics are
	// never rescanned wholesale and their step pointers (updated in place
	// by the collection) stay live across the renaming.
	c.staticBuf = c.staticBuf[:0]
	c.rsB.ForEach(c.staticKeep)
	c.rsB.Clear()
	for _, obj := range c.staticBuf {
		c.rsB.Remember(obj)
	}
	if c.allowGrow {
		// Keep the dynamic area's load factor sane: a collection that
		// frees less than a third of the steps (or less than two nursery
		// loads) would otherwise run again almost immediately.
		for c.st.FreeWords() < c.st.K()*c.st.StepWords/3 ||
			c.st.FreeWords() < 2*c.nursery.Cap() {
			c.st.AddSteps(1)
		}
	}
	c.st.SetJ(c.policy.ChooseJ(c.st.EmptyYoungest(), c.st.K()))
	c.st.ScanYoungForOldPointers(c.rememberB)

	c.stats.Collections++
	c.stats.MajorCollections++
	c.stats.WordsCopied += copied
	c.h.AddPause(&c.stats, copied)
	c.stats.NoteLive(c.st.LiveStepWords())
	c.notePeaks()
	if c.tenured() {
		// The non-predictive collection emptied the nursery wholesale.
		c.carry = 0
		if c.ctrl != nil {
			c.ctrl.ObserveMajor(copied)
		}
	}
	c.h.AfterGC()
}

// Collect implements heap.Collector with a non-predictive collection.
func (c *Collector) Collect() { c.npCollect() }

// FullCollect collects the entire dynamic area and nursery (j = 0 for one
// cycle), reclaiming all garbage including cross-step cycles.
func (c *Collector) FullCollect() {
	c.st.SetJ(0)
	c.npCollect()
}

// StaticWords returns the words occupied by the static area.
func (c *Collector) StaticWords() int {
	n := 0
	for _, s := range c.statics {
		n += s.Used()
	}
	return n
}

// PromoteAllToStatic performs the paper's explicit full collection (§8.4):
// every live object in the nursery and the dynamic area moves into a fresh
// static space that is never collected again, and the remembered sets
// empty. Only the mutator requests this.
func (c *Collector) PromoteAllToStatic() {
	worst := c.nursery.Used() + c.st.LiveStepWords()
	if worst == 0 {
		worst = 1
	}
	static := c.h.NewSpace(fmt.Sprintf("static-%d", len(c.statics)), worst)
	c.statics = append(c.statics, static)
	c.inStatic[static.ID] = true

	e := heap.NewEvacuator(c.h, nil, static)
	e.SetFrom(c.nursery)
	from := e.From()
	for p := 0; p < c.st.K(); p++ {
		from.AddSpace(c.st.Step(p))
	}
	c.h.VisitRoots(e.Evacuate)
	scan := func(obj heap.Word) {
		if from.HasPtr(obj) {
			return // collected with the region; old headers may be forwarded
		}
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), e.Evacuate)
	}
	c.rsA.ForEach(scan)
	c.rsB.ForEach(scan)
	e.Drain()

	c.nursery.Reset()
	c.st.ResetAll()
	c.st.SetJ(c.policy.ChooseJ(c.st.K(), c.st.K()))
	c.rsA.Clear()
	c.rsB.Clear()

	c.stats.Collections++
	c.stats.MajorCollections++
	c.stats.WordsCopied += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.notePeaks()
	c.carry = 0
	c.h.AfterGC()
}

func (c *Collector) notePeaks() {
	if p := c.rsA.Peak() + c.rsB.Peak(); p > c.stats.RemsetPeak {
		c.stats.RemsetPeak = p
	}
}
