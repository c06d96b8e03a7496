#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it from the repository root with the arguments given. The Go build
# cache lives there too, so nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local \
	go -C benchmark build -o "$build/nectar-benchmark" .
exec "$build/nectar-benchmark" "$@"
