#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Everything the
# build and the runs leave behind stays in .bench_build/ at the repository
# root: the Go build cache, the benchmark binary, and per-run work files.
#
#   bash vbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off
(cd "$here" && go build -o "$out/vbench" .)
cd "$root"
exec "$out/vbench" "$@"
