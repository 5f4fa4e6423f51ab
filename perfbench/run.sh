#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere:
#
#   bash perfbench/run.sh --workload lend --seed 1 --seconds 36 --trace 0
#
# The build cache, the binary and the run's scratch files all live under
# .bench_build/ at the repository root, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off
(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -out "$build/perfbench" "$@"
