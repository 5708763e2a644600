#!/usr/bin/env bash
# Builds hammerctl from the checkout this script sits in, builds the
# benchmark, and runs it with the given arguments. Run from the repository
# root:
#
#   bash hammerbench/run.sh --workload optimizer-loop --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/hammerctl" ./cmd/hammerctl
(cd hammerbench && go build -o "$out/hammerbench" .)
exec "$out/hammerbench" -hammerctl "$out/hammerctl" -work "$out/work" "$@"
