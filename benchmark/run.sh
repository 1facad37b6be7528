#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from and
# executes it with the arguments given, e.g.
#   bash benchmark/run.sh --workload search_small --seed 1 --seconds 15 --trace 0
# The Go build cache, the binary and every file the benchmark writes live
# under .bench_build/ in the current directory; nothing outside the checkout
# is touched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
go build -o "$build/koios-benchmark" ./benchmark
exec "$build/koios-benchmark" "$@"
