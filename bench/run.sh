#!/usr/bin/env bash
# Builds gpsdbench (and, through it, gpsd and walcheck) from the checkout
# in the working directory and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload node-churn --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write — Go's build cache, temporary
# files, binaries, WAL directories, logs, results.json, trace.jsonl —
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bin/gpsdbench" ./gpsdbench)
exec "$build/bin/gpsdbench" -work "$build/gpsdbench" "$@"
