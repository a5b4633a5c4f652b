#!/usr/bin/env bash
# Builds certquery and the benchmark runner from the checkout this is run
# from, then runs one workload:
#
#   bash perfbench/run.sh --workload build-resident --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/certquery" ./cmd/certquery
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -certquery "$out/bin/certquery" -work "$out/work" "$@"
