#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it; every
# argument is passed through (see perfbench/README.md). Build products and
# the Go build cache stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
