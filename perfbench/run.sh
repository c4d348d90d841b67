#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload fasthttp-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every other file the build writes stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	GOPROXY=off GOENV=off GOWORK=off
unset GOMAXPROCS GOGC GOMEMLIMIT GODEBUG

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
