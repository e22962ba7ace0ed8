#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark (its own module, which
# imports the repository's packages from this checkout) and runs it from
# the checkout root. The build keeps its caches under .bench_build, so
# nothing is read or written outside the checkout except the Go toolchain.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	go build -C bench -o "$build/evr-bench" .
exec "$build/evr-bench" "$@"
