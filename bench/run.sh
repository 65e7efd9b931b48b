#!/usr/bin/env bash
# Builds tdperf from this checkout and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload cell-hit --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh run -runs 5 -o runs.json
#
# Everything the build and the runs leave behind (binary, Go build cache,
# temp stores, CPU profiles, Chrome traces) goes under one directory in
# the checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TDPERF_DIR="$out"

(cd bench && go build -o "$out/tdperf" .)
exec "$out/tdperf" "$@"
