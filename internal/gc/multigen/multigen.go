// Package multigen implements the youngest-first generational collectors:
// a nursery, a pipeline of aging generations, and a semispace-managed old
// area. With two generations it is the conventional generational collector
// the paper compares against in Table 3 (internal/gc/generational names
// that configuration); with more it is the Larceny-style pipeline Section 7
// describes (compare Lieberman–Hewitt and the promotion pipelines of [2, 9,
// 19, 26, 35, 36] in the paper's related work). Objects are promoted one
// region per collection, so the generation an object lives in approximates
// its age in collections — the youngest-first heuristic at its most
// refined, and therefore the sharpest contrast with the non-predictive
// collector: under the radioactive decay model no amount of aging fidelity
// helps (BenchmarkAblationTenuring).
//
// The remembered set records objects in *older* generations that point into
// *younger* ones. After each collection it is re-filtered by rescanning
// each surviving entry — the refinement §8.4 describes ("when an object in
// the remembered set is traced, the collector can determine whether it
// still contains any cross-generational pointers").
package multigen

import (
	"fmt"

	"rdgc/internal/heap"
	"rdgc/internal/policy"
	"rdgc/internal/remset"
)

// Collector is an n-generation youngest-first collector: generations
// 0..n-2 are bump regions of aging objects and generation n-1 is a
// semispace pair.
type Collector struct {
	h     *heap.Heap
	name  string
	gens  []*heap.Space // gens[0] is the nursery; gens[n-1] is oldFrom
	oldTo *heap.Space
	genOf []int8 // SpaceID -> generation index, -1 otherwise

	rs    remset.Set
	stats heap.GCStats

	// evac is the persistent Cheney engine, re-armed with SetFrom per
	// collection; window and windowRoot implement the remembered-set root
	// scan for a collection of generations 0..window without building a
	// fresh closure each time.
	evac       *heap.Evacuator
	window     int
	windowRoot func(obj heap.Word)

	// The remembered-set rescans ask of each object whether a field points
	// into a generation younger than probeGen. Their visitors are built
	// once and keepBuf is reused, so steady-state collections allocate
	// nothing.
	probeGen      int
	probeFound    bool
	probe         func(slot *heap.Word)
	refilterVisit func(obj heap.Word)
	rememberVisit func(s *heap.Space, lo, hi int)
	keepBuf       []heap.Word

	expand float64

	// Age-based tenuring (heap/tenure.go), applied to the nursery only:
	// nursery-window collections retain under-threshold survivors in the
	// gen0To shadow instead of promoting them to generation 1. Wider
	// windows keep their wholesale one-generation-per-collection aging.
	// All nil/zero under the default threshold of 1.
	threshold     int
	trigger       int
	carry         int
	gen0To        *heap.Space
	youngBuf      []*heap.Space
	windowRootTen func(obj heap.Word)
	ctrl          *policy.Controller
	adaptOn       bool
}

// Option configures the collector.
type Option func(*Collector)

// WithExpansion lets the old semispaces grow to keep their inverse load
// factor at least invLoad.
func WithExpansion(invLoad float64) Option {
	if invLoad <= 1 {
		panic("multigen: inverse load factor must exceed 1")
	}
	return func(c *Collector) { c.expand = invLoad }
}

// WithRemset substitutes the remembered-set representation (default
// HashSet).
func WithRemset(rs remset.Set) Option { return func(c *Collector) { c.rs = rs } }

// WithTenure sets the nursery promotion threshold explicitly, overriding
// the heap's GCTenure setting: survivors are evacuated within the nursery
// until they have survived threshold collections (1 = wholesale
// promotion, heap.TenureNever = never promote).
func WithTenure(threshold int) Option {
	if threshold < 1 {
		panic("multigen: tenure threshold must be at least 1")
	}
	return func(c *Collector) { c.threshold = threshold }
}

// WithAdaptive puts the threshold and nursery trigger under the
// internal/policy feedback controller, overriding the heap's GCAdaptive
// setting.
func WithAdaptive() Option {
	return func(c *Collector) { c.adaptOn = true }
}

// New creates a collector whose generation sizes (in words, youngest
// first) are given explicitly; the last size is the old-semispace size.
// len(sizes) >= 2.
func New(h *heap.Heap, sizes []int, opts ...Option) *Collector {
	if len(sizes) < 2 {
		panic("multigen: need at least 2 generations")
	}
	c := &Collector{h: h, name: "generational", rs: remset.NewHashSet()}
	if len(sizes) > 2 {
		c.name = fmt.Sprintf("multigen(%d)", len(sizes))
	}
	c.threshold = h.GCTenure()
	c.adaptOn = h.GCAdaptive()
	for _, o := range opts {
		o(c)
	}
	for i, words := range sizes {
		c.gens = append(c.gens, h.NewSpace(fmt.Sprintf("gen-%d", i), words))
	}
	c.oldTo = h.NewSpace("gen-old-B", sizes[len(sizes)-1])
	c.trigger = sizes[0]
	c.evac = heap.NewEvacuator(h, nil)
	c.windowRoot = func(obj heap.Word) {
		// Remembered objects in generations > window may hold the only
		// pointers into the window; entries inside it are collected with it.
		if g := c.genIdx(obj); g >= 0 && g <= c.window {
			return
		}
		c.stats.RemsetScanned++
		heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.evac.Slot())
	}
	c.probe = c.probeSlot
	c.refilterVisit = c.refilterEntry
	c.rememberVisit = c.rememberRegion
	if c.adaptOn {
		c.ctrl = policy.New(policy.Config{})
	}
	if c.threshold > 1 || c.ctrl != nil {
		// Tenuring needs a survivor shadow for within-nursery evacuation;
		// the adaptive harness arms it even at threshold 1 so the survival
		// counters flow from the first collection.
		c.gen0To = h.NewSpace("gen-0-to", sizes[0])
		c.gens[0].EnsureAgeTable()
		c.gen0To.EnsureAgeTable()
		c.youngBuf = []*heap.Space{c.gen0To}
		c.windowRootTen = func(obj heap.Word) {
			if g := c.genIdx(obj); g >= 0 && g <= c.window {
				return
			}
			c.stats.RemsetScanned++
			heap.ScanObject(c.h.SpaceOf(obj), heap.PtrOff(obj), c.evac.SlotTenured())
		}
	}
	c.rebuildGenOf()
	h.SetAllocator(c)
	h.SetBarrier(c)
	return c
}

// tenured reports whether nursery collections run the age-routing engine.
func (c *Collector) tenured() bool { return c.gen0To != nil }

// TenureThreshold implements heap.Tenurer.
func (c *Collector) TenureThreshold() int { return c.threshold }

// YoungSpaces implements heap.Tenurer: the nursery, then the survivor
// shadow when tenuring is armed.
func (c *Collector) YoungSpaces() []*heap.Space {
	if c.gen0To == nil {
		return []*heap.Space{c.gens[0]}
	}
	return []*heap.Space{c.gens[0], c.gen0To}
}

// Adaptive implements heap.Tenurer.
func (c *Collector) Adaptive() bool { return c.ctrl != nil }

func (c *Collector) rebuildGenOf() {
	if n := len(c.h.Spaces); n > len(c.genOf) {
		c.genOf = append(c.genOf, make([]int8, n-len(c.genOf))...)
	}
	for i := range c.genOf {
		c.genOf[i] = -1
	}
	for i, s := range c.gens {
		c.genOf[s.ID] = int8(i)
	}
}

func (c *Collector) genIdx(w heap.Word) int {
	id := heap.PtrSpace(w)
	if int(id) >= len(c.genOf) {
		return -1
	}
	return int(c.genOf[id])
}

// Name implements heap.Collector: "generational" for the two-generation
// configuration, "multigen(n)" otherwise.
func (c *Collector) Name() string { return c.name }

// GCStats implements heap.Collector.
func (c *Collector) GCStats() *heap.GCStats { return &c.stats }

// Live returns the words in use across all generations.
func (c *Collector) Live() int {
	n := 0
	for _, g := range c.gens {
		n += g.Used()
	}
	return n
}

// RemsetLen returns the current remembered-set size.
func (c *Collector) RemsetLen() int { return c.rs.Len() }

// VerifySpec implements heap.Verifiable: the generations are live (the old
// to-space is scratch), and every object pointing into a strictly younger
// generation must be remembered.
func (c *Collector) VerifySpec() heap.VerifySpec {
	return heap.VerifySpec{
		Live: c.gens,
		Remsets: []heap.RemsetRule{{
			Name: "older->younger",
			Needs: func(obj, val heap.Word) bool {
				go1, gv := c.genIdx(obj), c.genIdx(val)
				return go1 > gv && gv >= 0
			},
			Has: c.rs.Contains,
		}},
	}
}

// RecordWrite implements heap.Barrier: remember objects that point into a
// strictly younger generation.
func (c *Collector) RecordWrite(obj, val heap.Word) {
	if !heap.IsPtr(val) {
		return
	}
	go1, gv := c.genIdx(obj), c.genIdx(val)
	if go1 > gv && gv >= 0 {
		c.rs.Remember(obj)
	}
}

// AllocRaw implements heap.Allocator. Objects too large for the nursery go
// directly to the old area.
func (c *Collector) AllocRaw(t heap.Type, payload int) heap.Word {
	total := 1 + payload + c.h.ExtraWords()
	if total > c.gens[0].Cap()/2 {
		return c.allocOld(t, payload, total)
	}
	if c.gens[0].Top+total > c.trigger {
		// Same condition as a failed Bump when the trigger sits at the
		// nursery cap (the wholesale default); the adaptive controller may
		// pull it lower.
		c.collectUpTo(c.chooseWindow(total))
	}
	off, ok := c.gens[0].Bump(total)
	if !ok && c.tenured() {
		// Retained survivors can leave too little room even after a
		// nursery collection; a major empties every generation.
		c.major(total)
		off, ok = c.gens[0].Bump(total)
	}
	if !ok {
		panic(fmt.Sprintf("multigen: nursery cannot hold %d words", total))
	}
	return c.h.InitObject(c.gens[0], off, t, payload)
}

func (c *Collector) allocOld(t heap.Type, payload, total int) heap.Word {
	old := c.gens[len(c.gens)-1]
	off, ok := old.Bump(total)
	if !ok {
		c.major(total)
		old = c.gens[len(c.gens)-1]
		off, ok = old.Bump(total)
		if !ok {
			panic(fmt.Sprintf("multigen: old area cannot hold %d words", total))
		}
	}
	return c.h.InitObject(old, off, t, payload)
}

// chooseWindow picks the highest generation that must be included in the
// next collection: generations 0..m are collected together when
// generation m+1 lacks room for their worst-case survivors.
func (c *Collector) chooseWindow(need int) int {
	worst := need
	for m := 0; m < len(c.gens)-1; m++ {
		worst += c.gens[m].Used()
		if c.gens[m+1].Free() >= worst {
			return m
		}
	}
	return len(c.gens) - 1
}

// collectUpTo collects generations 0..m, promoting every survivor into
// generation m+1. m = len(gens)-1 is a full collection into the old
// to-space.
func (c *Collector) collectUpTo(m int) {
	last := len(c.gens) - 1
	if m >= last {
		// No generation has room for the worst-case survivors: collect
		// everything, and let expansion leave a nursery's worth of headroom.
		c.major(c.gens[0].Used())
		return
	}
	if m == 0 && c.tenured() {
		c.minorTenured()
		return
	}
	target := c.gens[m+1]
	e := c.evac
	e.SetFrom(c.gens[:m+1]...)
	e.Begin(target)
	c.h.VisitRoots(e.Slot())
	c.window = m
	c.rs.ForEach(c.windowRoot)
	e.Drain()
	for i := 0; i <= m; i++ {
		c.gens[i].Reset()
	}
	if m+1 == last {
		// Every younger generation is now empty, so no remembered object
		// can still point into one.
		c.rs.Clear()
	} else {
		c.refilterRemset()
	}

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.stats.NoteLive(c.Live())
	c.notePeak()
	if c.tenured() {
		// The window included the nursery and promoted it wholesale.
		c.carry = 0
	}
	c.h.AfterGC()
}

// minorTenured collects the nursery alone with age routing: survivors
// younger than the threshold flip into the gen0To shadow with their side-
// table ages incremented, the rest are promoted to generation 1. Only
// reached when chooseWindow picked m == 0, which guarantees generation 1
// has headroom for the worst case. Because retained survivors stay young,
// the remembered set is refiltered rather than cleared.
func (c *Collector) minorTenured() {
	nursery := c.gens[0]
	fresh := nursery.Top - c.carry
	e := c.evac
	e.SetFrom(nursery)
	e.BeginTenured(c.threshold, c.youngBuf, c.gens[1])
	e.EvacuateRootsTenured()
	c.window = 0
	c.rs.ForEach(c.windowRootTen)
	e.DrainTenured()
	nursery.Reset()
	c.gens[0], c.gen0To = c.gen0To, c.gens[0]
	c.youngBuf[0] = c.gen0To
	c.rebuildGenOf()
	c.carry = c.gens[0].Top
	c.refilterRemset()
	// Promoted objects that reference a retained nursery survivor are
	// older-to-younger pointers the barrier never saw (both ends moved
	// during the collection).
	e.CopiedRegions(c.rememberVisit)

	c.stats.Collections++
	c.stats.WordsCopied += e.WordsCopied
	c.stats.WordsPromoted += e.WordsPromoted
	c.stats.WordsTenured += e.WordsRetained
	c.stats.TenureThreshold = c.threshold
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.stats.NoteLive(c.Live())
	c.notePeak()
	if c.ctrl != nil {
		c.threshold, c.trigger = c.ctrl.Step(fresh, e, c.gens[0], &c.stats)
	}
	c.h.AfterGC()
}

// major collects every generation into the old to-space and flips. need
// is the allocation that could not be placed, which expansion leaves room
// for.
func (c *Collector) major(need int) {
	last := len(c.gens) - 1
	if c.expand > 0 {
		// Worst case: everything currently allocated survives.
		worst := need
		for _, g := range c.gens {
			worst += g.Used()
		}
		if worst > c.oldTo.Cap() {
			c.oldTo.Resize(worst)
		}
	}
	e := c.evac
	e.SetFrom(c.gens...)
	e.Begin(c.oldTo)
	e.Run()
	for _, g := range c.gens {
		g.Reset()
	}
	c.gens[last], c.oldTo = c.oldTo, c.gens[last]
	c.rebuildGenOf()
	c.rs.Clear()

	c.stats.Collections++
	c.stats.MajorCollections++
	c.stats.WordsCopied += e.WordsCopied
	c.h.AddPause(&c.stats, e.WordsCopied)
	c.stats.NoteLive(c.Live())
	c.notePeak()

	if c.tenured() {
		// The major promoted the whole nursery: no survivors are carried.
		c.carry = 0
		if c.ctrl != nil {
			c.ctrl.ObserveMajor(e.WordsCopied)
		}
	}

	if c.expand > 0 {
		live := c.gens[last].Used()
		want := int(float64(live)*c.expand) + need
		if want > c.oldTo.Cap() {
			c.oldTo.Resize(want)
		}
		if want > c.gens[last].Cap() {
			// Grow the active space too: copy once more into the (bigger)
			// to-space and flip back.
			e.SetFrom(c.gens[last])
			e.Begin(c.oldTo)
			e.Run()
			c.gens[last].Reset()
			c.gens[last].Resize(want)
			c.gens[last], c.oldTo = c.oldTo, c.gens[last]
			c.rebuildGenOf()
		}
	}
	c.h.AfterGC()
}

// refilterRemset rescans every surviving entry and keeps only those that
// still contain a pointer into a strictly younger generation — the §8.4
// refinement.
func (c *Collector) refilterRemset() {
	c.keepBuf = c.keepBuf[:0]
	c.rs.ForEach(c.refilterVisit)
	c.rs.Clear()
	for _, w := range c.keepBuf {
		c.rs.Remember(w)
	}
}

// refilterEntry keeps one remembered object if it still points younger.
// Entries that were themselves collected have forwarded or died;
// forwarded entries re-enter under their new address.
func (c *Collector) refilterEntry(obj heap.Word) {
	s := c.h.SpaceOf(obj)
	off := heap.PtrOff(obj)
	if off >= s.Top {
		return // entry died with its reset space
	}
	if hdr := s.Mem[off]; heap.IsPtr(hdr) {
		obj = hdr // follow the forwarding left by the evacuation
		s = c.h.SpaceOf(obj)
		off = heap.PtrOff(obj)
	}
	if c.pointsYounger(s, off, c.genIdx(obj)) {
		c.keepBuf = append(c.keepBuf, obj)
	}
}

// rememberRegion remembers every object copied into [lo, hi) of s that
// points into a younger generation. Must run after the nursery flip and
// rebuildGenOf.
func (c *Collector) rememberRegion(s *heap.Space, lo, hi int) {
	g := c.genIdx(heap.PtrWord(s.ID, lo))
	for off := lo; off < hi; off += heap.ObjWords(s.Mem[off]) {
		if c.pointsYounger(s, off, g) {
			c.rs.Remember(heap.PtrWord(s.ID, off))
		}
	}
}

// pointsYounger reports whether the object at off in s has a field that
// points into a generation younger than g.
func (c *Collector) pointsYounger(s *heap.Space, off, g int) bool {
	c.probeGen, c.probeFound = g, false
	heap.ScanObject(s, off, c.probe)
	return c.probeFound
}

func (c *Collector) probeSlot(slot *heap.Word) {
	if c.probeFound || !heap.IsPtr(*slot) {
		return
	}
	if gv := c.genIdx(*slot); gv >= 0 && gv < c.probeGen {
		c.probeFound = true
	}
}

// Collect implements heap.Collector with a full collection.
func (c *Collector) Collect() { c.major(0) }

func (c *Collector) notePeak() {
	if p := c.rs.Peak(); p > c.stats.RemsetPeak {
		c.stats.RemsetPeak = p
	}
}
