#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run from
# the root of the repository, for example:
#
#   bash perfbench/run.sh --workload decay --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and span dump goes under .bench_build in the
# current directory, so a run writes nothing outside the checkout. Without
# the repository's go.mod one directory up the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out/spans" "$@"
