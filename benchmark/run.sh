#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with the
# given flags. Everything the Go toolchain writes (build cache, temporary
# files, the binary) stays under .bench_build/ inside the checkout.
set -euo pipefail
dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$dir")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off # the toolchain's counters and settings
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$dir" -o "$out/drtmr-benchmark" .
exec "$out/drtmr-benchmark" "$@"
