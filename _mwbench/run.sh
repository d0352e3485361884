#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _mwbench/run.sh --workload switch8 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C _mwbench build -o "$out/mwbench" .
exec "$out/mwbench" "$@"
