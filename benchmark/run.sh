#!/usr/bin/env bash
# Builds the benchmark against the program in this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh -seed 1 -out run.json
#
# Everything the build writes stays in benchmark/.bench_build/: the Go
# build cache, the module cache and the binary. Nothing is downloaded.
set -euo pipefail
out="$PWD/benchmark/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C benchmark build -o "$out/lfoc-benchmark" .
exec "$out/lfoc-benchmark" "$@"
