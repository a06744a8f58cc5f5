#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the toolchain's own state stay in
# .bench_build/ under the current directory.
set -euo pipefail

build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

mkdir -p "$build/tmp"
go build -C bench -o "$build/wcm3d-bench" .
exec "$build/wcm3d-bench" "$@"
