#!/usr/bin/env bash
# Builds the benchmark program from source inside the checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload rpc-512p --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
