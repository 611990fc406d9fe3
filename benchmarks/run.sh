#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout: builds
# nescperf from source into .bench_build/ there and runs it with the caller's
# arguments. Go's build cache, module cache, temporary files and per-user
# configuration (telemetry counters) are all pointed into .bench_build/, so
# nothing is read or written outside the checkout. In a directory without the
# repository's sources the build, and so this script, fails.
set -euo pipefail
src="$(dirname "$0")/nescperf"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$src" build -o "$build/nescperf" .
exec "$build/nescperf" "$@"
