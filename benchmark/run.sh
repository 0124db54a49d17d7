#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given flags. Run from the repository root:
#
#   bash benchmark/run.sh --workload query_score --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, Go's own config
# and telemetry, temp files, the binary, the hosts' root directories,
# traces) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gopath" "$work/config" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" XDG_CONFIG_HOME="$work/config"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C benchmark build -o "$work/cspm-bench" .
exec "$work/cspm-bench" --work "$work" "$@"
