#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# and runs it. Everything the Go toolchain writes (build cache, temporary
# files, the binary) stays under .bench_build/, and everything the
# benchmark writes stays under benchmark/out/.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod and internal/ not found)" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/hawq-benchmark" .
exec "$build/hawq-benchmark" "$@"
