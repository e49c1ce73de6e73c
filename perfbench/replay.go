package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"rdgc/internal/decay"
	"rdgc/internal/experiments"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// replayCollectors replay the corpus. Mark/sweep is left out: its
// free-list allocation would swamp trace decode, and decay measures it.
var replayCollectors = []string{"semispace", "generational"}

// replayCorpus records a linked, mixed-size decay session (stores and
// remembered-set traffic) and one program run (handle pushes and pops),
// then interleaves sc.replayCopies copies of each into a compressed
// corpus whose session schedule the seed picks. It returns the corpus and
// the comfortable heap size for replaying it.
func replayCorpus(seed int64, sc *scale, layers map[string]float64) ([]byte, int, error) {
	dcfg := experiments.DecayConfig{HalfLife: sc.replayHalfLife, L: decayL, SizeMin: 1, SizeMax: 16}
	var dtrace, ptrace bytes.Buffer
	start := time.Now()
	_, err := trace.Record(&dtrace, false, nil,
		func(h *heap.Heap) heap.Collector { return sized(h, "semispace", dcfg.HeapWords()) },
		func(h *heap.Heap, c heap.Collector) error {
			w := decay.NewWorkload(h, sc.replayHalfLife, seed, decay.WithLinking(0.25), decay.WithSizes(1, 16))
			w.Run(sc.replaySteps)
			c.Collect()
			return nil
		})
	if err != nil {
		return nil, 0, fmt.Errorf("recording decay: %w", err)
	}
	p := sc.replayProgram()
	_, err = trace.Record(&ptrace, false, nil,
		func(h *heap.Heap) heap.Collector { return sized(h, "semispace", p.HeapWords()) },
		func(h *heap.Heap, c heap.Collector) error {
			if err := p.Run(h); err != nil {
				return err
			}
			c.Collect()
			return nil
		})
	if err != nil {
		return nil, 0, fmt.Errorf("recording %s: %w", p.Name(), err)
	}
	layers["trace.record_s"] = time.Since(start).Seconds()

	start = time.Now()
	var inputs []*trace.Reader
	for i := 0; i < sc.replayCopies; i++ {
		for _, b := range [][]byte{dtrace.Bytes(), ptrace.Bytes()} {
			rd, err := trace.NewReader(bytes.NewReader(b))
			if err != nil {
				return nil, 0, err
			}
			inputs = append(inputs, rd)
		}
	}
	var corpus bytes.Buffer
	if _, err := trace.Interleave(&corpus, inputs, trace.SynthOptions{Compress: true, Seed: uint64(seed)}); err != nil {
		return nil, 0, fmt.Errorf("interleaving: %w", err)
	}
	layers["trace.synth_s"] = time.Since(start).Seconds()
	total := sc.replayCopies * (dcfg.HeapWords() + p.HeapWords())
	if sc.replayHeapWords > 0 {
		total = sc.replayHeapWords
	}
	return corpus.Bytes(), total, nil
}

// setupReplay builds the corpus. The round replays it under each replay
// collector; Replay checks the replayed statistics against the trace
// trailer, so drift counts as a failed replay.
func setupReplay(seed int64, sc *scale) (runFunc, map[string]float64, error) {
	layers := make(map[string]float64)
	corpus, total, err := replayCorpus(seed, sc, layers)
	if err != nil {
		return nil, nil, err
	}
	return func(tr *tracer) round {
		return runReplay(corpus, total, tr)
	}, layers, nil
}

func runReplay(corpus []byte, total int, tr *tracer) round {
	var r round
	var rd *trace.Reader
	for _, name := range replayCollectors {
		h := heap.New()
		c := sized(h, name, total)
		t := tr.begin("replay/" + name)
		var res trace.ReplayResult
		var err error
		rd, err = trace.NewReader(bytes.NewReader(corpus))
		if err == nil {
			if tr == nil {
				res, err = trace.Replay(rd, h, c, trace.ReplayOptions{})
			} else {
				res, err = tracedReplay(rd, h, tr.wrap(h, c, name), tr)
			}
		}
		r.wall += tr.end(t)
		r.attempted++
		if err != nil {
			r.fail("replay %s: %v", name, err)
			continue
		}
		r.events += res.Events
		r.sim.addHeap(h.Stats)
		r.sim.addGC(c.GCStats())
	}
	if tr != nil {
		r.layer("trace.events", float64(r.events))
		if rd != nil && rd.StoredBytes() > 0 {
			r.layer("trace.read_amp", float64(rd.RawBytes())/float64(rd.StoredBytes()))
		}
	}
	return r
}

// tracedReplay is trace.Replay with Reader.Next and Replayer.Apply timed
// one call at a time, including Replay's trailer check.
func tracedReplay(rd *trace.Reader, h *heap.Heap, c heap.Collector, tr *tracer) (res trace.ReplayResult, err error) {
	rp, err := trace.NewReplayer(h, c)
	if err != nil {
		return res, err
	}
	defer rp.Close()
	err = protect(func() error {
		var ev trace.Event
		for {
			nerr := tr.next(rd, &ev)
			if errors.Is(nerr, io.EOF) {
				return nil
			}
			if nerr != nil {
				return nerr
			}
			if aerr := tr.applyEvent(rp, &ev); aerr != nil {
				return fmt.Errorf("event %d (%s): %w", res.Events, ev.String(), aerr)
			}
			res.Events++
		}
	})
	if err != nil {
		return res, err
	}
	res.Stats = h.Stats
	t := rd.Trailer()
	if h.Stats.WordsAllocated != t.WordsAllocated || h.Stats.ObjectsAllocated != t.ObjectsAllocated || res.Events != t.Events {
		return res, fmt.Errorf("%w: replayed %d events, %d words, %d objects; recorded %d, %d, %d",
			trace.ErrDrift, res.Events, h.Stats.WordsAllocated, h.Stats.ObjectsAllocated,
			t.Events, t.WordsAllocated, t.ObjectsAllocated)
	}
	return res, nil
}
