// Command perfbench is the repository's benchmark. It runs one workload,
// seeded, for a fixed time, checks every output, and prints each metric by
// name with its unit; the last line of standard output is a JSON result.
//
//	perfbench --workload programs|decay|replay|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// instrumentation. With --trace 1 it alternates untraced rounds with rounds
// that time every layer boundary from outside, and reports the per-layer
// metrics. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rdgc/internal/bench"
	"rdgc/internal/bench/boyer"
	"rdgc/internal/bench/lattice"
	"rdgc/internal/bench/nbody"
	"rdgc/internal/heap"
)

// workload is one set of inputs the benchmark runs. setup builds one
// round's inputs from the seed and returns the round ready to run, with
// any set-up layer timings. The round drives the system; a non-nil tracer
// makes it a traced round.
type workload struct {
	name  string
	why   string
	setup func(seed int64, sc *scale) (runFunc, map[string]float64, error)
}

type runFunc func(tr *tracer) round

var workloads = []*workload{
	{
		name:  "programs",
		why:   "the nine Table-3 programs under the hybrid collector: mutator-heavy, dominated by typed accessors and the handle stack",
		setup: setupPrograms,
	},
	{
		name:  "decay",
		why:   "the radioactive decay model under all seven collectors at L=2: allocation paths, barrier and collectors, no accessor work",
		setup: setupDecay,
	},
	{
		name:  "replay",
		why:   "a compressed interleaved trace corpus replayed under semispace and generational: trace decode and the replay identity map",
		setup: setupReplay,
	},
	{
		name:  "serve",
		why:   "4 shards of incremental mark/sweep at moderate load: the only workload running internal/serve, mark slices and lazy sweep",
		setup: setupServe,
	},
}

// scale sizes every workload. full is what the benchmark runs; toy keeps
// the package's own test well under a second.
type scale struct {
	programs func() []bench.Program

	decayHalfLife float64
	decaySteps    int

	replayHalfLife float64
	replaySteps    int
	replayProgram  func() bench.Program
	replayCopies   int

	// replayHeapWords, when set, overrides the replay collectors' size.
	replayHeapWords int

	serveSeeds     int
	serveHorizon   uint64
	serveHeapWords int

	// setupBudget is how long a round keeps setting its workload up: at
	// least once, and again until this much time has passed, so that a
	// cheap set-up is timed often enough for its median to be steady.
	setupBudget time.Duration
}

var full = scale{
	programs:       bench.Standard,
	decayHalfLife:  16384,
	decaySteps:     200000,
	replayHalfLife: 2048,
	replaySteps:    100000,
	replayProgram:  func() bench.Program { return boyer.New(1, false) },
	replayCopies:   2,
	serveSeeds:     16,
	serveHorizon:   60000,
	serveHeapWords: 1 << 16,
	setupBudget:    250 * time.Millisecond,
}

var toy = scale{
	programs: func() []bench.Program {
		return []bench.Program{nbody.New(10, 10), lattice.New(3, 3)}
	},
	decayHalfLife:   128,
	decaySteps:      2000,
	replayHalfLife:  64,
	replaySteps:     1000,
	replayProgram:   func() bench.Program { return lattice.New(3, 3) },
	replayCopies:    2,
	replayHeapWords: 4096,
	serveSeeds:      2,
	serveHorizon:    2000,
	serveHeapWords:  8192,
}

// sim is the simulated work of a round: identical for every round of one
// seed, traced or not.
type sim struct {
	Words, Objects            uint64
	Collections               uint64
	Copied, Marked, Swept     uint64
	RemsetScanned, RemsetPeak uint64
}

func (s *sim) addHeap(st heap.Stats) {
	s.Words += st.WordsAllocated
	s.Objects += st.ObjectsAllocated
}

func (s *sim) addGC(g *heap.GCStats) {
	s.Collections += uint64(g.Collections)
	s.Copied += g.WordsCopied
	s.Marked += g.WordsMarked
	s.Swept += g.WordsSwept
	s.RemsetScanned += g.RemsetScanned
	if p := uint64(g.RemsetPeak); p > s.RemsetPeak {
		s.RemsetPeak = p
	}
}

// markCons is Σ(words copied + words marked) / Σ(words allocated).
func (s *sim) markCons() float64 {
	if s.Words == 0 {
		return 0
	}
	return float64(s.Copied+s.Marked) / float64(s.Words)
}

// round is the outcome of one round.
type round struct {
	wall              time.Duration
	attempted, failed int
	failures          []string
	events            uint64 // input events processed (see README.md)
	sim               sim
	// digest summarizes the round's deterministic outputs beyond sim, such
	// as per-cell collector counts or serve's Aggregates; every round of a
	// run must produce the same digest.
	digest      string
	markConsErr float64 // decay only
	p99Ticks    uint64  // serve only
	layers      map[string]float64
	settings    string // effective collector settings, where only a run reveals them
}

func (r *round) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *round) layer(name string, v float64) {
	if r.layers == nil {
		r.layers = make(map[string]float64)
	}
	r.layers[name] = v
}

// protect runs f, turning a panic into an error so that one broken
// operation counts as failed instead of ending the run.
func protect(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// result is a whole run: every round, and what they add up to.
type result struct {
	workload          *workload
	seed              int64
	plain, traced     []round
	setups            []float64            // every set-up's duration, s
	setupLayers       map[string][]float64 // every set-up's layer timings
	attempted, failed int
	failures          []string
	e2e, layers       map[string]float64
	settings          string
}

// prepare sets w up repeatedly for sc.setupBudget, each time from a
// collected Go heap. It returns the last set-up, with every set-up's
// duration and layer timings.
func prepare(w *workload, seed int64, sc *scale) (runFunc, []float64, map[string][]float64, error) {
	var times []float64
	layers := make(map[string][]float64)
	start := time.Now()
	for {
		runtime.GC()
		t := time.Now()
		run, l, err := w.setup(seed, sc)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		for k, v := range l {
			layers[k] = append(layers[k], v)
		}
		if time.Since(start) >= sc.setupBudget {
			return run, times, layers, nil
		}
	}
}

// measure runs rounds of w until seconds have passed: at least two
// untraced rounds, or with tracing one untraced and one traced round,
// alternating. Every round must reproduce the first round's simulation.
func measure(w *workload, seed int64, seconds float64, traced bool, sc *scale) *result {
	res := &result{workload: w, seed: seed, setupLayers: make(map[string][]float64)}
	start := time.Now()
	var first *round
	for {
		run, times, layers, err := prepare(w, seed, sc)
		if err != nil {
			res.attempted++
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("set-up: %v", err))
			break
		}
		res.setups = append(res.setups, times...)
		for k, v := range layers {
			res.setupLayers[k] = append(res.setupLayers[k], v...)
		}
		var tr *tracer
		if traced && len(res.traced) < len(res.plain) {
			tr = newTracer()
		}
		// Start every round from a collected Go heap, so a round does not
		// pay for the garbage of the one before it.
		runtime.GC()
		r := run(tr)
		if first == nil {
			first = &r
		} else if r.sim != first.sim || r.digest != first.digest ||
			r.markConsErr != first.markConsErr || r.p99Ticks != first.p99Ticks {
			r.failures = append(r.failures, fmt.Sprintf(
				"round %d did not reproduce round 1: sim %+v digest %q, want sim %+v digest %q",
				len(res.plain)+len(res.traced)+1, r.sim, r.digest, first.sim, first.digest))
			r.failed = r.attempted
		}
		res.attempted += r.attempted
		res.failed += r.failed
		res.failures = append(res.failures, r.failures...)
		if r.settings != "" {
			res.settings = r.settings
		}
		if tr != nil {
			addTracerLayers(&r, tr)
			res.traced = append(res.traced, r)
			if spansDir != "" {
				if err := tr.writeSpans(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, seed)); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				}
			}
		} else {
			res.plain = append(res.plain, r)
		}
		done := len(res.plain) >= 2
		if traced {
			done = len(res.plain) >= 1 && len(res.traced) >= 1
		}
		if done && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	if first == nil {
		return res
	}
	res.e2e = endToEnd(res, first)
	if traced {
		res.layers = perLayer(res)
	}
	return res
}

// spansDir, when set by --spans, receives the spans of the traced rounds.
var spansDir string

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func endToEnd(res *result, first *round) map[string]float64 {
	var walls []float64
	for _, r := range res.plain {
		walls = append(walls, r.wall.Seconds())
	}
	wall := median(walls)
	m := map[string]float64{
		"setup_s":       median(res.setups),
		"wall_s":        wall,
		"mevents_per_s": float64(first.events) / wall / 1e6,
		"peak_rss_mb":   peakRSSMB(),
		"mark_cons":     first.sim.markCons(),
		"fail_frac":     float64(res.failed) / float64(max(res.attempted, 1)),
	}
	switch res.workload.name {
	case "decay":
		m["mark_cons_err"] = first.markConsErr
	case "serve":
		m["sim_p99_ticks"] = float64(first.p99Ticks)
	}
	return m
}

// addTracerLayers fills the layer metrics every workload shares from the
// tracer's accumulators and the round's simulated counts.
func addTracerLayers(r *round, tr *tracer) {
	r.layer("alloc.calls", float64(tr.alloc.calls))
	r.layer("alloc.s", tr.alloc.seconds())
	r.layer("alloc.ns_per_call", tr.alloc.nsPerCall())
	r.layer("barrier.calls", float64(tr.barrier.calls))
	r.layer("barrier.s", tr.barrier.seconds())
	for _, c := range collectorNames {
		r.layer("alloc."+c+".ns_per_call", tr.accFor(tr.allocBy, c).nsPerCall())
		r.layer("gc."+c+".s", tr.accFor(tr.gcBy, c).seconds())
	}
	r.layer("gc.collections", float64(r.sim.Collections))
	r.layer("gc.s", tr.gc.seconds())
	r.layer("gc.pause_p50_us", tr.pauseQuantile(0.5))
	r.layer("gc.pause_max_us", tr.pauseQuantile(1))
	r.layer("gc.words_copied", float64(r.sim.Copied))
	r.layer("gc.words_marked", float64(r.sim.Marked))
	r.layer("gc.words_swept", float64(r.sim.Swept))
	if traced := r.sim.Copied + r.sim.Marked; traced > 0 {
		r.layer("gc.ns_per_traced_word", float64(tr.gc.ns)/float64(traced))
	}
	r.layer("remset.scanned", float64(r.sim.RemsetScanned))
	r.layer("remset.peak", float64(r.sim.RemsetPeak))
	r.layer("trace.decode_s", tr.decode.seconds())
	r.layer("trace.apply_s", tr.apply.seconds())
	r.layer("sim.words_allocated", float64(r.sim.Words))
	r.layer("sim.objects_allocated", float64(r.sim.Objects))
	r.layer("mark_cons_err", r.markConsErr)
	r.layer("sim_p99_ticks", float64(r.p99Ticks))
	r.layer("tracing.wall_s", r.wall.Seconds())
}

// perLayer takes the median of every layer metric over the traced rounds,
// and the tracing overhead against the untraced rounds.
func perLayer(res *result) map[string]float64 {
	vals := make(map[string][]float64)
	for _, r := range res.traced {
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
	}
	m := make(map[string]float64)
	for k, v := range res.setupLayers {
		vals[k] = v
	}
	for _, d := range perLayerMetrics {
		m[d.Name] = median(vals[d.Name])
	}
	// Collections are few, so their spans carry little tracing cost; the
	// untraced wall is the honest denominator.
	m["gc.share"] = m["gc.s"] / res.e2e["wall_s"]
	m["tracing.overhead_s"] = m["tracing.wall_s"] - res.e2e["wall_s"]
	return m
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// heapSettings reports the collector settings a fresh heap gets from the
// library defaults (and any RDGC_GC_* environment), which is what every
// workload but serve runs with. Serve rounds report their own.
func heapSettings() string {
	h := heap.New()
	engines := "sequential engines"
	if h.GCWorkers() > 0 {
		engines = "parallel engines"
	}
	return fmt.Sprintf("gcworkers=%d (%s) gclab=%v incremental=%v slice=%d tenure=%d adaptive=%v",
		h.GCWorkers(), engines, h.GCLAB(), h.GCIncremental(), h.GCSliceBudget(), h.GCTenure(), h.GCAdaptive())
}

// report prints the human-readable lines and returns the JSON result line
// and whether every output was correct.
func (res *result) report(out io.Writer, traced bool) ([]byte, bool, error) {
	w := res.workload
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d trace=%v rounds=%d untraced + %d traced\n",
		w.name, res.seed, traced, len(res.plain), len(res.traced))
	fmt.Fprintf(out, "# env go=%s gomaxprocs=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	settings := res.settings
	if settings == "" {
		settings = heapSettings()
	}
	fmt.Fprintf(out, "# gc %s\n", settings)
	fmt.Fprintf(out, "# why %s\n", w.why)
	fmt.Fprintf(out, "# %d set-ups, median %.4fs\n", len(res.setups), median(res.setups))
	for i, r := range res.plain {
		fmt.Fprintf(out, "# round %d untraced wall %.4fs\n", i+1, r.wall.Seconds())
	}
	for i, r := range res.traced {
		fmt.Fprintf(out, "# round %d traced wall %.4fs\n", i+1, r.wall.Seconds())
	}
	for _, d := range reportMetrics {
		if v, ok := res.e2e[d.Name]; ok {
			fmt.Fprintf(out, "%-24s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, d := range perLayerMetrics {
		_, printed := res.e2e[d.Name]
		if v, ok := res.layers[d.Name]; ok && !printed {
			fmt.Fprintf(out, "%-24s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for i, f := range res.failures {
		if i == 10 {
			fmt.Fprintf(out, "# ... %d more failures\n", len(res.failures)-i)
			break
		}
		fmt.Fprintf(out, "# FAIL %s\n", f)
	}

	defs, vals := endToEndMetrics, res.e2e
	if traced {
		defs, vals = perLayerMetrics, res.layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	correct := res.failed == 0
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			correct = false
			v = 0
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
	return line, correct, err
}

func main() {
	name := flag.String("workload", "", "workload: programs, decay, replay or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&spansDir, "spans", "", "directory that receives the traced rounds' spans")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || flag.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload programs|decay|replay|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res := measure(w, *seed, *seconds, *traceFlag == 1, &full)
	line, correct, err := res.report(os.Stdout, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !correct {
		os.Exit(1)
	}
}
