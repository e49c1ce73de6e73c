package main

// metric names one reported number and its unit.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// collectorNames are the seven collectors, named as gcfuzz names them; the
// per-collector layer metrics use these names.
var collectorNames = []string{"semispace", "marksweep", "generational", "nonpredictive", "hybrid", "multigen", "npms"}

// endToEndMetrics are the --trace 0 metrics: what a user of the system
// sees, defined and never 0 on every workload, each with a regression
// bound. They must match BENCHMARK.json.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"mark_cons", "ratio"},
}

// reportMetrics are printed on the human-readable lines: the end-to-end
// metrics, the throughput, which for a given seed moves only with wall_s,
// and the metrics that are 0 or undefined on some workload, which
// therefore cannot carry a regression bound.
var reportMetrics = append(append([]metric(nil), endToEndMetrics...),
	metric{"mevents_per_s", "Mevents/s"},
	metric{"fail_frac", "ratio"},
	metric{"mark_cons_err", "ratio"},
	metric{"sim_p99_ticks", "ticks"},
)

// perLayerMetrics are the --trace 1 metrics. They must match BENCHMARK.json.
var perLayerMetrics = func() []metric {
	m := []metric{
		{"bench.self_s", "s"},
		{"decay.self_s", "s"},
		{"alloc.calls", "count"},
		{"alloc.s", "s"},
		{"alloc.ns_per_call", "ns"},
	}
	for _, c := range collectorNames {
		m = append(m, metric{"alloc." + c + ".ns_per_call", "ns"})
	}
	m = append(m,
		metric{"barrier.calls", "count"},
		metric{"barrier.s", "s"},
		metric{"gc.collections", "count"},
		metric{"gc.s", "s"},
		metric{"gc.share", "ratio"},
		metric{"gc.pause_p50_us", "us"},
		metric{"gc.pause_max_us", "us"},
		metric{"gc.words_copied", "words"},
		metric{"gc.words_marked", "words"},
		metric{"gc.words_swept", "words"},
		metric{"gc.ns_per_traced_word", "ns"},
	)
	for _, c := range collectorNames {
		m = append(m, metric{"gc." + c + ".s", "s"})
	}
	return append(m,
		metric{"remset.scanned", "count"},
		metric{"remset.peak", "count"},
		metric{"trace.decode_s", "s"},
		metric{"trace.apply_s", "s"},
		metric{"trace.read_amp", "ratio"},
		metric{"trace.events", "count"},
		metric{"trace.record_s", "s"},
		metric{"trace.synth_s", "s"},
		metric{"serve.generate_s", "s"},
		metric{"serve.run_s", "s"},
		metric{"serve.collections", "count"},
		metric{"serve.gc_pause_words", "words"},
		metric{"sim.words_allocated", "words"},
		metric{"sim.objects_allocated", "count"},
		metric{"mark_cons_err", "ratio"},
		metric{"sim_p99_ticks", "ticks"},
		metric{"tracing.wall_s", "s"},
		metric{"tracing.overhead_s", "s"},
	)
}()
