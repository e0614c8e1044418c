#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root.  Everything the build and the run write (Go build cache,
# binary, database files, result and trace files) stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/facebm" .)
cd "$root"
exec "$build/facebm" "$@"
