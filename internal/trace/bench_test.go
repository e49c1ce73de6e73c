package trace_test

import (
	"bytes"
	"testing"

	"rdgc/internal/decay"
	"rdgc/internal/gc/gcfuzz"
	"rdgc/internal/gc/semispace"
	"rdgc/internal/heap"
	"rdgc/internal/trace"
)

// Benchmark scale: a linked, mixed-size decay session of benchSteps
// allocations in a benchWords-word heap, amplified into benchCopies
// interleaved sessions for replay.
const (
	benchHalfLife = 2000
	benchSteps    = 100000
	benchWords    = 1 << 16
	benchCopies   = 4
)

// recordDecay runs the benchmark's decay session under semispace with a
// recorder attached, writing the trace into out.
func recordDecay(out *bytes.Buffer) error {
	_, err := trace.Record(out, false, nil,
		func(h *heap.Heap) heap.Collector { return semispace.New(h, benchWords, semispace.WithExpansion(2)) },
		func(h *heap.Heap, c heap.Collector) error {
			w := decay.NewWorkload(h, benchHalfLife, 1, decay.WithLinking(0.25), decay.WithSizes(1, 16))
			w.Run(benchSteps)
			c.Collect()
			return nil
		})
	return err
}

// reportPerEvent adds the mean time per trace event to b's results.
func reportPerEvent(b *testing.B, events uint64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
}

// BenchmarkReplay replays a compressed, interleaved decay corpus — built
// once, in memory — under semispace and generational: trace decode plus
// the replayer's identity table, the replay workload's layers at a
// smaller scale.
func BenchmarkReplay(b *testing.B) {
	var base, corpus bytes.Buffer
	if err := recordDecay(&base); err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Amplify(&corpus, base.Bytes(), benchCopies, trace.SynthOptions{Seed: 1, Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, nc := range gcfuzz.CollectorsSized(benchCopies * benchWords) {
		if nc.Name != "semispace" && nc.Name != "generational" {
			continue
		}
		b.Run(nc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd, err := trace.NewReader(bytes.NewReader(corpus.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				h := heap.New()
				if _, err := trace.Replay(rd, h, nc.New(h), trace.ReplayOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			reportPerEvent(b, tr.Events)
		})
	}
}

// BenchmarkRecord records the decay session behind BenchmarkReplay's
// corpus: the mutator, the recorder's identity table, and event encoding.
func BenchmarkRecord(b *testing.B) {
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := recordDecay(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rd, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := rd.Drain()
	if err != nil {
		b.Fatal(err)
	}
	reportPerEvent(b, tr.Events)
}

// TestIdentityTablesZeroAllocs guards the identity side table's steady
// state: once both semispaces have been copied into, a collection under an
// attached Replayer or Recorder — a move-hook call per surviving object —
// allocates nothing on the Go heap, and neither do the replayer's
// non-allocating events.
func TestIdentityTablesZeroAllocs(t *testing.T) {
	const n = 500
	t.Run("replayer", func(t *testing.T) {
		h := heap.New()
		c := semispace.New(h, 1<<14)
		rp, err := trace.NewReplayer(h, c)
		if err != nil {
			t.Fatal(err)
		}
		defer rp.Close()
		apply := func(ev trace.Event) {
			if err := rp.Apply(&ev); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < n; i++ {
			apply(trace.Event{Kind: trace.KindAlloc, Type: heap.TPair, Size: 2})
			apply(trace.Event{Kind: trace.KindStore, Obj: i, Slot: 0, Val: trace.Imm(heap.FixnumWord(int64(i)))})
			if i > 0 {
				apply(trace.Event{Kind: trace.KindStore, Obj: i, Slot: 1, Val: trace.Obj(i - 1)})
			}
		}
		apply(trace.Event{Kind: trace.KindGlobal, Val: trace.Obj(n - 1)})
		c.Collect()
		c.Collect()
		if allocs := testing.AllocsPerRun(10, c.Collect); allocs != 0 {
			t.Errorf("collection under a replayer: %v allocs, want 0", allocs)
		}

		depth := h.LiveRefs()
		events := []trace.Event{
			{Kind: trace.KindStore, Obj: 7, Slot: 0, Val: trace.Obj(3)},
			{Kind: trace.KindPush, Val: trace.Obj(5)},
			{Kind: trace.KindSet, Ref: int32(depth), Val: trace.Obj(9)},
			{Kind: trace.KindPopTo, Size: depth},
		}
		for i := range events {
			ev := &events[i]
			apply(*ev) // warm the handle stack
			if allocs := testing.AllocsPerRun(100, func() { _ = rp.Apply(ev) }); allocs != 0 {
				t.Errorf("Apply(%s): %v allocs, want 0", ev, allocs)
			}
		}
	})
	t.Run("recorder", func(t *testing.T) {
		h := heap.New()
		c := semispace.New(h, 1<<14)
		w, err := trace.NewWriter(&bytes.Buffer{}, trace.Header{})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.NewRecorder(h, w)
		if err != nil {
			t.Fatal(err)
		}
		list := h.GlobalWord(heap.NullWord)
		for i := 0; i < n; i++ {
			s := h.Scope()
			h.Set(list, h.Get(h.Cons(h.Fix(int64(i)), list)))
			s.Close()
		}
		c.Collect()
		c.Collect()
		if allocs := testing.AllocsPerRun(10, c.Collect); allocs != 0 {
			t.Errorf("collection under a recorder: %v allocs, want 0", allocs)
		}
		if err := rec.Finish(); err != nil {
			t.Fatal(err)
		}
	})
}
