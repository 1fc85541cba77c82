#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ of the checkout (binary, Go build cache, module cache) and
# runs it from the checkout root, so nothing is read or written outside.
# The benchmark is its own module (bench/go.mod) that replaces the rbpc
# module with the checkout it sits in; without that checkout the build
# fails and so does this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/rbpc-bench" .)
cd "$root"
exec "$build/rbpc-bench" "$@"
