#!/usr/bin/env bash
# Builds the serving benchmark from the source in this checkout and runs it.
# Start it from the repository root, for example:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache included, stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
