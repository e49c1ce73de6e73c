// Package policy implements the feedback controller behind -gcadapt: it
// adapts a tenuring collector's promotion threshold, effective nursery
// size, and collection trigger online from the per-age-class survival
// statistics the tenured evacuator collects (heap/tenure.go), the same
// quantities the lifetime census derives offline (internal/lifetime).
//
// The model is the copy-cost argument of the paper turned into a control
// law. Write f(a) for the fraction of age-class-a words that survive a
// nursery collection, and F(a) = f(0)·f(1)···f(a-1) for the fraction of
// freshly allocated words still alive at their a-th collection. Under a
// threshold T, every allocated word costs
//
//	C(T) = Σ_{a=1..T} F(a)  +  K·F(T)
//
// copies in expectation: one nursery copy per collection survived up to
// the T-th (which promotes it), plus K — the measured words the old area
// copies per word promoted into it — for everything that reaches age T.
// Under radioactive decay f is age-invariant and below K/(K+1), so C is
// minimized by the largest T: the controller pushes the threshold toward
// "never promote" and the collector degenerates into the non-predictive
// shape the paper favors there. Under bimodal lifetimes (most words die
// before their first collection, the rest are effectively immortal,
// f(a≥1) ≈ 1) every retained round re-copies the immortals for nothing,
// so C is minimized by a small finite T. The controller just brute-forces
// the argmin over T in [1, MaxThreshold] each collection — sixteen
// multiply-adds on the steady-state decision path, allocation-free.
package policy

import (
	"math"

	"rdgc/internal/heap"
)

// Config parameterizes a Controller; the zero value selects the defaults.
type Config struct {
	// Alpha is the EWMA smoothing factor for the survival fractions and
	// the old-copy-cost estimate (default 0.3).
	Alpha float64

	// MaxThreshold caps the adapted promotion threshold (default
	// heap.TenureAgeClasses). When the argmin lands on the cap the
	// controller reports heap.TenureNever instead: past the resolved age
	// classes there is no evidence promotion ever pays.
	MaxThreshold int

	// OldCopyCost seeds K, the copies a promoted word costs the old area,
	// until majors provide measurements (default 4).
	OldCopyCost float64

	// TargetSurvival is the fresh-word survival rate the nursery trigger
	// steers toward (default 1/3): surviving more means the nursery is
	// collected too early (grow the trigger). The trigger only shrinks
	// when survival is negligible — below TargetSurvival/16 — because a
	// smaller trigger always adds minor collections, and each one re-pays
	// the copy cost of whatever survives; only when almost nothing does is
	// a shorter pause worth that.
	TargetSurvival float64

	// MinSampleWords is the age-class population below which a round
	// teaches the controller nothing about that class (default 64 words).
	MinSampleWords uint64

	// Hysteresis is the relative copy-cost advantage a candidate threshold
	// needs over the incumbent before the controller switches (default
	// 0.05), so EWMA noise cannot flap the policy.
	Hysteresis float64
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.MaxThreshold < 1 || c.MaxThreshold > heap.TenureAgeClasses {
		c.MaxThreshold = heap.TenureAgeClasses
	}
	if c.OldCopyCost <= 0 {
		c.OldCopyCost = 4
	}
	if c.TargetSurvival <= 0 || c.TargetSurvival >= 1 {
		c.TargetSurvival = 1.0 / 3
	}
	if c.MinSampleWords == 0 {
		c.MinSampleWords = 64
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.05
	}
	return c
}

// Observation is one nursery collection's survival evidence, in words.
type Observation struct {
	// FreshWords is the age-0 population at risk: nursery words born since
	// the previous minor collection.
	FreshWords uint64
	// SurvByAge counts the words that survived, by pre-collection age
	// class; RetainedByAge the subset kept in the nursery, by
	// post-increment age class (next round's at-risk population for
	// classes >= 1). Both come straight from Evacuator.SurvivorsByAge.
	SurvByAge     [heap.TenureAgeClasses]uint64
	RetainedByAge [heap.TenureAgeClasses]uint64
	// PromotedWords is what the old area received this collection.
	PromotedWords uint64
	// NurseryCap is the physical nursery capacity in words, the ceiling of
	// the adapted trigger.
	NurseryCap int
}

// Decision is the knob setting in force after an observation.
type Decision struct {
	// Threshold is the promotion threshold (heap.TenureNever when the
	// cost argmin wants the cap — no finite threshold pays).
	Threshold int
	// TriggerWords is the effective nursery size: the occupancy at which
	// the next minor collection should fire, within [NurseryCap/4,
	// NurseryCap].
	TriggerWords int
	// Changed reports whether either knob moved this observation.
	Changed bool
}

// Controller is the adaptive tenuring policy. It is deterministic: the
// decision sequence is a pure function of the observation sequence. The
// zero value is not ready; use New.
type Controller struct {
	cfg Config

	// f[a] is the survival-fraction EWMA of age class a; seen[a] tracks
	// whether class a ever had a measurable population, because a class
	// the current threshold never lets exist must inherit the estimate of
	// the oldest class that does (fhat).
	f    [heap.TenureAgeClasses]float64
	seen [heap.TenureAgeClasses]bool

	// pop[a] is the class-a population at risk in the next observation:
	// last round's retained survivors. pop[0] is ignored (FreshWords).
	pop [heap.TenureAgeClasses]uint64

	// k is the old-copy-cost EWMA, measured as major-collection copied
	// words per word promoted since the previous major, clamped to
	// [0.5, 16] so one odd major cannot capsize the model.
	k                  float64
	kSeen              bool
	promotedSinceMajor uint64

	threshold   int
	trigger     int
	adaptations int
}

// New creates a controller that starts at wholesale promotion (threshold
// 1) with the trigger at the full nursery — the status quo — and adapts
// from the first observation on.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg.withDefaults()}
	c.threshold = 1
	c.k = c.cfg.OldCopyCost
	return c
}

// Threshold returns the promotion threshold currently in force.
func (c *Controller) Threshold() int { return c.threshold }

// Trigger returns the effective nursery size currently in force, or 0
// before the first observation (meaning: use the full nursery).
func (c *Controller) Trigger() int { return c.trigger }

// Adaptations returns how many knob changes the controller has applied.
func (c *Controller) Adaptations() int { return c.adaptations }

// OldCopyCost returns the current K estimate, exposed for tests and
// reports.
func (c *Controller) OldCopyCost() float64 { return c.k }

// SeedSurvival pre-loads the survival EWMAs from an offline survival
// curve — fractions[a] being the fraction of class-a words that survive
// one nursery collection, as lifetime.SurvivalFractions derives from a
// census — so a controller can start near the right policy instead of at
// wholesale. Classes beyond len(fractions) stay unseen.
func (c *Controller) SeedSurvival(fractions []float64) {
	for a := 0; a < len(fractions) && a < heap.TenureAgeClasses; a++ {
		v := fractions[a]
		if v < 0 || v > 1 || math.IsNaN(v) {
			continue
		}
		c.f[a] = v
		c.seen[a] = true
	}
	// A census is a whole run's evidence, not one round's, so the seeded
	// controller may jump straight to the argmin instead of climbing.
	c.decide(0, true)
}

// ObserveMajor feeds the controller one major (old-area) collection: the
// words it copied, against the words promoted into the old area since the
// previous major, refresh the K estimate.
func (c *Controller) ObserveMajor(copiedWords uint64) {
	if c.promotedSinceMajor > 0 {
		sample := float64(copiedWords) / float64(c.promotedSinceMajor)
		if sample < 0.5 {
			sample = 0.5
		}
		if sample > 16 {
			sample = 16
		}
		if !c.kSeen {
			c.k = sample
			c.kSeen = true
		} else {
			c.k = c.cfg.Alpha*sample + (1-c.cfg.Alpha)*c.k
		}
	}
	c.promotedSinceMajor = 0
}

// Observe feeds the controller one nursery collection and returns the
// decision now in force. The steady-state path performs no allocation.
func (c *Controller) Observe(o Observation) Decision {
	// Update the survival EWMAs against each class's at-risk population.
	for a := 0; a < heap.TenureAgeClasses; a++ {
		at := c.pop[a]
		if a == 0 {
			at = o.FreshWords
		}
		if at < c.cfg.MinSampleWords {
			continue
		}
		rate := float64(o.SurvByAge[a]) / float64(at)
		if rate > 1 {
			rate = 1
		}
		if !c.seen[a] {
			c.f[a] = rate
			c.seen[a] = true
		} else {
			c.f[a] = c.cfg.Alpha*rate + (1-c.cfg.Alpha)*c.f[a]
		}
	}
	c.pop = o.RetainedByAge
	c.promotedSinceMajor += o.PromotedWords

	changed := c.decide(o.NurseryCap, false)
	return Decision{Threshold: c.threshold, TriggerWords: c.trigger, Changed: changed}
}

// Step feeds the controller one tenured nursery collection, run by e over
// a nursery now holding its retained survivors, with fresh words allocated
// since the previous one. It returns the threshold and trigger to apply,
// the trigger clamped to [nursery.Top+Cap/8, Cap] so allocation never
// collects on every request, and copies both knobs' state into stats.
func (c *Controller) Step(fresh int, e *heap.Evacuator, nursery *heap.Space, stats *heap.GCStats) (threshold, trigger int) {
	surv, retained := e.SurvivorsByAge()
	d := c.Observe(Observation{
		FreshWords:    uint64(max(fresh, 0)),
		SurvByAge:     *surv,
		RetainedByAge: *retained,
		PromotedWords: e.WordsPromoted,
		NurseryCap:    nursery.Cap(),
	})
	trigger = d.TriggerWords
	if trigger <= 0 || trigger > nursery.Cap() {
		trigger = nursery.Cap()
	}
	trigger = max(trigger, min(nursery.Top+nursery.Cap()/8, nursery.Cap()))
	stats.PolicyAdaptations = c.adaptations
	stats.TenureThreshold = d.Threshold
	return d.Threshold, trigger
}

// fhat estimates class a's survival fraction, falling back to the oldest
// measured class when a has never existed under the thresholds run so far
// (age-invariance is the natural prior: it is exactly the decay model).
func (c *Controller) fhat(a int) float64 {
	for ; a >= 0; a-- {
		if c.seen[a] {
			return c.f[a]
		}
	}
	return 0.5
}

// promotionEpsilon is the predicted fraction of fresh words reaching the
// promotion age below which a finite threshold is pure bookkeeping: when
// fewer than one word in 128 would ever be promoted, the controller snaps
// to TenureNever rather than keep the machinery armed for a trickle.
const promotionEpsilon = 1.0 / 128

// decide recomputes both knobs; it reports whether anything changed.
// nurseryCap <= 0 leaves the trigger untouched. jump permits moving the
// threshold straight to the argmin; otherwise upward moves climb one age
// class per call, because raising the threshold by k conjectures about k
// age classes the current policy has never let exist — each step should
// earn the next from measurements, and stopping a policy that is wasting
// copies (moving down) must not wait for any such evidence.
func (c *Controller) decide(nurseryCap int, jump bool) bool {
	changed := false

	// No age class ever measured: hold the status quo. The fallback prior
	// in fhat would otherwise argue for never-promote on zero evidence.
	evidence := false
	for _, s := range c.seen {
		if s {
			evidence = true
			break
		}
	}
	if !evidence {
		return false
	}

	// Promotion threshold: argmin over T of Σ_{a<=T} F(a) + K·F(T), with
	// hysteresis in favor of the incumbent.
	bestT, bestCost := 1, math.Inf(1)
	curCost := math.Inf(1)
	cur := c.threshold
	if cur > c.cfg.MaxThreshold {
		cur = c.cfg.MaxThreshold
	}
	var reach [heap.TenureAgeClasses + 1]float64 // reach[T] = F(T)
	F, cum := 1.0, 0.0
	for T := 1; T <= c.cfg.MaxThreshold; T++ {
		F *= c.fhat(T - 1)
		reach[T] = F
		cum += F
		cost := cum + c.k*F
		if cost < bestCost {
			bestCost, bestT = cost, T
		}
		if T == cur {
			curCost = cost
		}
	}
	if bestT == c.cfg.MaxThreshold {
		// The argmin hit the cap: no resolved age class makes promotion
		// pay, so do not promote at all.
		bestT = heap.TenureNever
	}
	if bestT != c.threshold && bestCost < curCost*(1-c.cfg.Hysteresis) {
		newT := bestT
		if !jump && bestT > c.threshold && c.threshold < c.cfg.MaxThreshold {
			newT = c.threshold + 1
		}
		if newT >= c.cfg.MaxThreshold {
			newT = heap.TenureNever
		} else if reach[newT] < promotionEpsilon {
			newT = heap.TenureNever
		}
		if newT != c.threshold {
			c.threshold = newT
			c.adaptations++
			changed = true
		}
	}

	// Nursery trigger: steer the fresh-word survival rate toward the
	// target by multiplicative adjustment within [cap/4, cap].
	if nurseryCap > 0 && c.seen[0] {
		trigger := c.trigger
		if trigger <= 0 {
			trigger = nurseryCap
		}
		switch f0 := c.f[0]; {
		case f0 > c.cfg.TargetSurvival:
			trigger = trigger * 5 / 4
		case f0 < c.cfg.TargetSurvival/16:
			// Shrinking adds minor collections, each of which re-copies
			// every survivor, so it only pays when survival is negligible.
			trigger = trigger * 4 / 5
		}
		if trigger > nurseryCap {
			trigger = nurseryCap
		}
		if trigger < nurseryCap/4 {
			trigger = nurseryCap / 4
		}
		if trigger != c.trigger {
			c.trigger = trigger
			c.adaptations++
			changed = true
		}
	}
	return changed
}
