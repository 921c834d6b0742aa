#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache, temp
# files and binary all under .bench_build/) and runs it with the arguments
# given. `go run ./benchmark` is the same program with the default cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
