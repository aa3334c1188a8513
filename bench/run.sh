#!/bin/sh
# Builds the harness from source into .bench_build/ at the root of the
# checkout (nothing is written outside the checkout: the Go build cache and
# the toolchain's config directory are pointed there too) and runs it from
# the root, so bench/out/ and every relative path mean the same thing
# wherever this script is called from.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)
mkdir -p .bench_build
GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go -C bench build -o "$root/.bench_build/bench" .
exec .bench_build/bench "$@"
