#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it:
#
#   bash perfbench/run.sh --workload benign --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache included, stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
