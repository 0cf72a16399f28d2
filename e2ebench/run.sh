#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash e2ebench/run.sh --workload scan-clean --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary, the data files and the spill files all stay
# under .bench_build/ in the current directory. The build fails, and the
# script exits non-zero without printing a result, when the module it
# benchmarks (../go.mod and ../internal) is not there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --dir "$build/work" "$@"
