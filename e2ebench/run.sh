#!/usr/bin/env bash
# Builds fairserve and the benchmark from the checkout's sources, then runs
# one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload audit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

go build -o "$out/fairserve" ./cmd/fairserve
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)

exec "$out/e2ebench" -server "$out/fairserve" -dir "$out" "$@"
