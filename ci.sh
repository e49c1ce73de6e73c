#!/bin/sh
# Repository check suite: tier-1 (build + test), vet, and the race-detector
# pass that guards the parallel experiment runner's across-heaps contract.
set -eu

go build ./...
go vet ./...
go test ./...
go test -race ./...
# Benchmark smoke run: every benchmark executes one iteration, catching
# bit-rot in the perf harness without paying for a real measurement.
go test -run '^$' -bench . -benchtime 1x ./...

# Coverage floors for the invariant-critical packages, set just under the
# coverage measured when the verifier landed; dipping below one means tests
# were deleted or a new code path shipped untested.
check_cover() {
    pct=$(go test -cover -count=1 "$1" | awk '
        { for (i = 1; i <= NF; i++) if ($i ~ /%$/) { gsub(/%/, "", $i); print $i } }')
    if [ -z "$pct" ]; then
        echo "ci: no coverage figure for $1" >&2
        exit 1
    fi
    if [ "$(awk -v p="$pct" -v f="$2" 'BEGIN { print (p >= f) ? 1 : 0 }')" != 1 ]; then
        echo "ci: coverage for $1 is $pct%, below the $2% floor" >&2
        exit 1
    fi
    echo "coverage $1: $pct% (floor $2%)"
}
check_cover ./internal/heap 85
check_cover ./internal/remset 96
check_cover ./internal/trace 85
check_cover ./internal/policy 96
check_cover ./internal/serve 88

# Parallel tracing and sweeping: the conformance suite (which parameterizes
# worker counts itself) and the heap engines re-run under the race detector
# with RDGC_GC_WORKERS pinned to 4 for the env-sensitive paths — including
# the mark/sweep collector, whose sweep phase claims blocks concurrently at
# that setting — then again with per-worker allocation buffers switched on,
# and finally the workers=1 parity smoke (the parallel engines must stay
# within noise of the sequential ones).
RDGC_GC_WORKERS=4 go test -race -count=1 ./internal/heap ./internal/gc/conformance ./internal/gc/marksweep
RDGC_GC_WORKERS=4 RDGC_GC_LAB=1 go test -race -count=1 ./internal/gc/marksweep ./internal/gc/gcfuzz

# Incremental collection: the heap engines, both mark/sweep collectors, and
# the conformance suite (whose incremental tests pin the surviving object
# set to the stop-the-world one) re-run under the race detector with
# RDGC_GC_INCR pinned on, so the barrier, the mark slices, and the lazy
# sweep all run their env-sensitive paths.
RDGC_GC_INCR=1 go test -race -count=1 ./internal/heap ./internal/gc/marksweep ./internal/gc/npms ./internal/gc/conformance

# Tenuring and the adaptive policy controller: the generational collectors
# and the conformance suite (age oracle, threshold-1 ≡ wholesale identity,
# never-promote) re-run under the race detector with RDGC_GC_ADAPT pinned
# on, so every heap the tests build routes survivors through the tenured
# evacuation path with the feedback controller live.
RDGC_GC_ADAPT=1 go test -race -count=1 ./internal/heap ./internal/gc/multigen ./internal/gc/hybrid ./internal/gc/conformance
go run ./cmd/benchreport -smoke

# Server simulation: the shard loop re-runs under the race detector with the
# runner forced to four workers, so concurrent shards exercise their
# no-shared-state contract; then the gcserve CLI determinism smoke — the
# same seed and config must print byte-identical reports run-to-run and
# across runner worker counts (the words-as-time clock admits no wall-time).
RDGC_PARALLEL=4 go test -race -count=1 ./internal/serve
serve_tmp=$(mktemp -d)
serve_flags="-collector marksweep -gcincr -shards 4 -horizon 20000 -heap 16384 -seed 42 -arrival mmpp"
go run ./cmd/gcserve $serve_flags > "$serve_tmp/a.txt"
go run ./cmd/gcserve $serve_flags > "$serve_tmp/b.txt"
go run ./cmd/gcserve $serve_flags -parallel 1 > "$serve_tmp/c.txt"
cmp "$serve_tmp/a.txt" "$serve_tmp/b.txt"
cmp "$serve_tmp/a.txt" "$serve_tmp/c.txt"
rm -rf "$serve_tmp"

# Trace smoke: record a small benchmark once, then replay the trace under
# every collector with the deep heap-invariant verifier on. Exercises the
# full record -> replay -> verify pipeline through the actual CLI.
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT
go run ./cmd/gctrace record -quick -o "$trace_tmp/lattice.trace" lattice
go run ./cmd/gctrace replay -verify "$trace_tmp/lattice.trace"
go run ./cmd/gctrace stat "$trace_tmp/lattice.trace" > /dev/null

# Synth smoke: amplify the recording into an interleaved multi-session
# corpus, raw and block-compressed, and drive the whole synth -> compress ->
# sharded-replay -> verify pipeline through the CLI. The aggregate replay
# stats must be byte-identical between the raw and compressed corpora
# (same events, different wire), run to run, and across -parallel worker
# counts (the sharded driver's aggregation order is spec order, not
# completion order). tail -n +2 drops the path-bearing header line.
go run ./cmd/gctrace synth -op amplify -n 8 -seed 3 -o "$trace_tmp/mix.trace" "$trace_tmp/lattice.trace"
go run ./cmd/gctrace synth -op amplify -n 8 -seed 3 -compress -o "$trace_tmp/mixz.trace" "$trace_tmp/lattice.trace"
mix_bytes=$(wc -c < "$trace_tmp/mix.trace")
mixz_bytes=$(wc -c < "$trace_tmp/mixz.trace")
if [ "$mixz_bytes" -ge "$mix_bytes" ]; then
    echo "ci: compressed corpus ($mixz_bytes bytes) not smaller than raw ($mix_bytes bytes)" >&2
    exit 1
fi
go run ./cmd/gctrace stat "$trace_tmp/mix.trace" > /dev/null
go run ./cmd/gctrace replay -verify "$trace_tmp/mix.trace"  | tail -n +2 > "$trace_tmp/r-raw.txt"
go run ./cmd/gctrace replay -verify "$trace_tmp/mixz.trace" | tail -n +2 > "$trace_tmp/r-z.txt"
cmp "$trace_tmp/r-raw.txt" "$trace_tmp/r-z.txt"
go run ./cmd/gctrace replay -verify -shards 4 "$trace_tmp/mix.trace"             | tail -n +2 > "$trace_tmp/s-a.txt"
go run ./cmd/gctrace replay -verify -shards 4 "$trace_tmp/mix.trace"             | tail -n +2 > "$trace_tmp/s-b.txt"
go run ./cmd/gctrace replay -verify -shards 4 -parallel 1 "$trace_tmp/mix.trace" | tail -n +2 > "$trace_tmp/s-c.txt"
cmp "$trace_tmp/s-a.txt" "$trace_tmp/s-b.txt"
cmp "$trace_tmp/s-a.txt" "$trace_tmp/s-c.txt"

# Fuzz smoke: a bounded mutation run of the cross-collector byte-program
# harness (the seed corpus replays first), under the race detector with the
# parallel tracing engines at four workers so every fuzz input also drives
# the concurrent drains — and, with RDGC_GC_LAB=1, the buffered evacuation
# path and the four-worker block sweep. Every fuzz input already replays in
# incremental mode too (FuzzCollectors runs RunAllIncr on each program); the
# third run pins a small slice budget so mark slices and lazy sweeps
# interleave as finely as possible. Real campaigns: make fuzz.
RDGC_GC_WORKERS=4 go test -race -run '^$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz
RDGC_GC_WORKERS=4 RDGC_GC_LAB=1 go test -race -run '^$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz
RDGC_GC_SLICE=64 go test -race -run '^$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz
# The fourth run pins the tenured replay passes to threshold 6, so the
# age-routing evacuation and the age oracle see every fuzz input at a
# mid-grid threshold (unpinned runs derive the threshold from the program).
RDGC_GC_TENURE=6 go test -race -run '^$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz

# Wire-format fuzz smoke: arbitrary bytes against the trace reader, seeded
# with both wire versions, compressed blocks, and the checked-in synthesized
# corpus. The reader must decode or fail with a package sentinel — never
# panic — no matter what the block decompressor is fed.
go test -run '^$' -fuzz '^FuzzTraceReader$' -fuzztime 10s ./internal/trace
