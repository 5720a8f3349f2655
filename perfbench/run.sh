#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload megafarm --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and Go's temporary and config files all
# stay under .bench_build in the working directory; the build never
# fetches anything, so outside a full checkout it fails and prints no
# result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
