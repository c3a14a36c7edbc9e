#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --table     # rewrite perfbench/WHERE_TIME_GOES.md
#
# Run from the repository root. Every build artifact (the binary, the Go
# build cache) and every trace file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# Production builds use the committed PGO profile (see the Makefile's pgo
# target); the benchmark measures the same optimized binary.
pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo="$root/default.pgo"
fi
(cd "$root/perfbench" && go build -pgo="$pgo" -o "$build/perfbench" .) >&2

exec "$build/perfbench" "$@"
