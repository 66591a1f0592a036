#!/usr/bin/env bash
# Builds the BAPS benchmark from the sources of this checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload live-proxy --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, scratch traces, span dumps)
# stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
