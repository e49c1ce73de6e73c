package main

import (
	"fmt"
	"time"

	"rdgc/internal/heap"
	"rdgc/internal/serve"
)

// serveConfig is the moderate-load point of the benchreport serve grid
// (at full scale, per-shard heaps of 2^16 words and 256 words per tick)
// for 4 shards of incremental mark/sweep, run on one runner worker. GCWorkers stays 0;
// serve maps it to 1, so the shards run the inline workers=1 engine.
func serveConfig(load serve.LoadConfig, heapWords int) serve.Config {
	return serve.Config{
		Load:         load,
		Collector:    "marksweep",
		Incremental:  true,
		Shards:       4,
		HeapWords:    heapWords,
		WordsPerTick: 256,
		Parallel:     1,
	}
}

// serveLoad is the load of the i'th of a round's simulations. One
// simulation's request count varies a lot with its seed (sessions have
// Pareto lifetimes), so a round runs several.
func serveLoad(seed int64, i int, sc *scale) serve.LoadConfig {
	return serve.LoadConfig{Seed: uint64(seed)*1000 + uint64(i), HorizonTicks: sc.serveHorizon}
}

// setupServe generates each simulation's schedule. The round runs them:
// every scheduled request must be served, and a same-seed rerun must give
// an identical Aggregate, which the round digest carries.
func setupServe(seed int64, sc *scale) (runFunc, map[string]float64, error) {
	start := time.Now()
	loads := make([]serve.LoadConfig, sc.serveSeeds)
	scheduled := make([]int, sc.serveSeeds)
	for i := range loads {
		loads[i] = serveLoad(seed, i, sc)
		sched, err := serve.Generate(loads[i])
		if err != nil {
			return nil, nil, err
		}
		// Resolves (and caches) the allocation profiles serve.Run uses.
		if _, err := serve.ResolveProfiles(sched.Cfg.Profiles); err != nil {
			return nil, nil, err
		}
		scheduled[i] = len(sched.Requests)
	}
	layers := map[string]float64{"serve.generate_s": time.Since(start).Seconds()}
	return func(tr *tracer) round {
		return runServe(loads, scheduled, sc.serveHeapWords, tr)
	}, layers, nil
}

func runServe(loads []serve.LoadConfig, scheduled []int, heapWords int, tr *tracer) round {
	var r round
	var latency heap.PauseHist
	var collections, pauseWords uint64
	for i, want := range scheduled {
		cfg := serveConfig(loads[i], heapWords)
		t := tr.begin(fmt.Sprintf("serve/%d", cfg.Load.Seed))
		var res *serve.Result
		err := protect(func() (err error) {
			res, err = serve.Run(cfg)
			return err
		})
		r.wall += tr.end(t)
		r.attempted += want
		if err != nil {
			r.failed += want
			r.failures = append(r.failures, fmt.Sprintf("serve seed %d: %v", cfg.Load.Seed, err))
			continue
		}
		a := res.Agg
		if got := int(a.Requests); got != want {
			lost := want - got
			if got > want {
				lost = want
			}
			r.failed += lost
			r.failures = append(r.failures, fmt.Sprintf("serve seed %d: served %d of %d scheduled requests",
				cfg.Load.Seed, got, want))
		}
		r.events += a.Requests
		r.sim.Words += a.WordsAlloc
		for j := range res.Shards {
			r.sim.addGC(&res.Shards[j].GC)
		}
		latency.Merge(&a.Latency)
		collections += uint64(a.Collections)
		pauseWords += a.WordsPause
		r.digest += fmt.Sprintf("%+v\n", a)
		c := res.Cfg
		if c.SliceBudget == 0 {
			c.SliceBudget = heap.DefaultGCSliceBudget()
		}
		r.settings = fmt.Sprintf("serve shards=%d collector=%s incremental=%v slice=%d tenure=%d adaptive=%v gcworkers=%d "+
			"(serve maps GCWorkers 0 to 1: the inline workers=1 engine, not the sequential engines) gclab=%v parallel=%d heap=%dw wpt=%d",
			c.Shards, c.Collector, c.Incremental, c.SliceBudget, c.Tenure, c.Adaptive, c.GCWorkers, c.GCLAB, c.Parallel, c.HeapWords, c.WordsPerTick)
	}
	r.p99Ticks = latency.P99()
	r.layer("serve.run_s", r.wall.Seconds())
	r.layer("serve.collections", float64(collections))
	r.layer("serve.gc_pause_words", float64(pauseWords))
	return r
}
