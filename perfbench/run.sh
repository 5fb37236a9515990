#!/usr/bin/env bash
# Builds the benchmark from source inside the working tree and runs it:
#
#   bash perfbench/run.sh --workload light|ensemble|grid --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all live under .bench_build/, so nothing is read or
# written outside the tree. The benchmark is its own module and builds
# the repository's packages through a replace directive; outside a full
# checkout that build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
