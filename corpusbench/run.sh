#!/usr/bin/env bash
# Builds the corpus benchmark from the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash corpusbench/run.sh --workload wiper --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
go -C "$root/corpusbench" build -o "$out/corpusbench" .
exec "$out/corpusbench" "$@"
