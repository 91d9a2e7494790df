#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with
# the flags given: everything the build and the run write stays under
# .bench_build/ and benchmark/out/. Run from the root of the checkout:
#
#   sh benchmark/run.sh --workload fed_route --seed 1 --seconds 20 --trace 0
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local \
	go build -o "$build/medea-benchmark" ./benchmark
exec "$build/medea-benchmark" "$@"
