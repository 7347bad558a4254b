#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root; see perfbench/README.md.
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 12 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files and the binary.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
