#!/bin/bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#	bash perfbench/run.sh compare <base-results-dir> <head-results-dir>
#
# Everything the build and the runs leave behind (Go build cache, module
# cache, telemetry, the binary, result files, profiles, spans) goes under
# .bench_build/ in the current directory, or $CARGO_TARGET_DIR if set.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export PERFBENCH_BUILD="$build"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
