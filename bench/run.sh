#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's own flags:
#
#   bash bench/run.sh --workload suite412 --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run write stays in .bench_build under the
# current directory: the Go build cache, the binary, recorded traces and
# span files. The build needs only the Go toolchain and this checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/helperbench" .) >&2
exec "$build/helperbench" "$@"
