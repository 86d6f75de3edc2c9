#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's sources and runs it with the arguments given. Everything the
# Go toolchain writes (build cache, module cache, the binary, the trace
# file) goes under .bench_build/ in the checkout, nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" -spec "$root/BENCHMARK.json" -trace-out "$build/trace.json" "$@"
