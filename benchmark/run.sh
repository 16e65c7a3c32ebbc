#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: the command BENCHMARK.json names. Everything the build
# writes (binary, Go build cache, temporary files) stays under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/ssrbench" ./benchmark
exec "$build/ssrbench" "$@"
