#!/usr/bin/env bash
# Runs the repository benchmark. From the repository root:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# It builds the benchmark, hltsd and hltsc into the build directory
# ($CARGO_TARGET_DIR, default .bench_build) and keeps the Go build cache
# and every temporary file there too, so a run reads and writes only
# inside the checkout. The arguments go to the benchmark; see
# bench/README.md.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" -build "$build/bin" "$@"
