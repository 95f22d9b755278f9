#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the root of the repository, e.g.
#   bash perfbench/run.sh --workload check-corpus --seed 1 --seconds 10 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
