#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it. Everything the build and the run
# write (Go build cache, link scratch, the binary, lake directories,
# span files) stays under .bench_build/ in the checkout root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C "$root/benchmark" -o "$out/golake-benchmark" . >&2
exec "$out/golake-benchmark" -manifest "$root/BENCHMARK.json" -workdir "$out/work" "$@"
