#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# module root, passing its arguments through:
#
#   bash perfbench/run.sh --workload tune-hit --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and temporary files stay under
# .bench_build/ so the run writes nowhere outside the checkout.
set -eu
cd "$(dirname "$0")/.."
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" \
	TMPDIR="$out/gotmp"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
