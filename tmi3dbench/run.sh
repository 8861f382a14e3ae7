#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash tmi3dbench/run.sh --workload study-matrix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in that root: the Go build cache, temporary files, the
# binary, the stores and the trace dumps.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/tmi3dbench" && go build -o "$out/tmi3dbench" .) >&2
exec "$out/tmi3dbench" "$@"
