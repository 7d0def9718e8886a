#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash cmcpbench/run.sh --workload hpc-touch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the current
# directory: the Go build cache, temporary files, journals and span dumps.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$bench_dir" && go build -buildvcs=false -o "$build/cmcpbench" .)
exec "$build/cmcpbench" --dir "$build" "$@"
