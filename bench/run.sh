#!/bin/sh
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from there with the given flags. Everything the build and the run
# write stays inside the checkout: Go's build cache and temporary files are
# pointed at .bench_build/, cluster data goes to .bench_build/tmp, results
# to bench/out.
set -e
cd "$(dirname "$0")/.."
root=$(pwd)
mkdir -p "$root/.bench_build/gotmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/gotmp"
export GOPATH="$root/.bench_build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$root/.bench_build/dosas-bench" .
exec "$root/.bench_build/dosas-bench" "$@"
