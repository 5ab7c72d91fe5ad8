#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload serve-open --seed 1 --seconds 24 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write stays under .bench_build/ there (Go build cache included); the
# toolchain is used as installed and nothing is fetched.
set -euo pipefail

root=$(pwd)
bench_dir="$root/perfbench"
if [[ ! -f "$root/go.mod" || ! -f "$bench_dir/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C "$bench_dir" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
