#!/usr/bin/env bash
# Builds Enki's settlement benchmark from this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload city --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (the binary, the Go build cache, span
# files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
