#!/usr/bin/env bash
# Settles whether the study workload got slower between two commits:
# extracts both trees with git archive, builds perfbench/drift against
# each, runs them in interleaved pairs (alternating which side goes
# first) on one seed, and prints the comparator's verdicts.
#
#   bash perfbench/drift.sh [OLD] [NEW] [PAIRS] [SEED]
#
# Run from the root of a git checkout. Work files go to .bench_build/drift.
set -euo pipefail

old="${1:-e93ae9f}"
new="${2:-7eb7881}"
pairs="${3:-10}"
seed="${4:-1}"
out="$(pwd)/.bench_build/drift"

export GOCACHE="$(pwd)/.bench_build/gocache" GOPATH="$(pwd)/.bench_build/gopath" \
	GOTMPDIR="$(pwd)/.bench_build/gotmp" TMPDIR="$(pwd)/.bench_build/gotmp" \
	XDG_CONFIG_HOME="$(pwd)/.bench_build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

rm -rf "$out"
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"
go -C perfbench build -o "$(pwd)/.bench_build/perfbench" .
for side in old new; do
	rev="${!side}"
	mkdir -p "$out/$side/tree/perfbench"
	git archive "$rev" | tar -x -C "$out/$side/tree"
	cp -r perfbench/go.mod perfbench/measure perfbench/study perfbench/drift "$out/$side/tree/perfbench/"
	go -C "$out/$side/tree/perfbench" build -o "$out/$side/drift" ./drift
	git rev-parse "$rev" >"$out/$side/rev"
done

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then order="old new"; else order="new old"; fi
	for side in $order; do
		(cd "$out/$side/tree" && "$out/$side/drift" -seed "$seed") >>"$out/$side/study.jsonl"
	done
done
"$(pwd)/.bench_build/perfbench" --compare "$out/old" "$out/new"
