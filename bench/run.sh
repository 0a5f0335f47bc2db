#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument is passed on. Run from the repository root:
#
#   bash bench/run.sh -workload grid-cold -seed 1
#
# Everything building and running leave behind (the Go build cache, the
# binary, server state, traced output) stays in .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
