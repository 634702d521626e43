#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the go tool writes (build cache, module
# cache, its own config) is pointed inside .bench_build/, so a run reads and
# writes nothing outside the checkout. Without the repository around it
# (BENCHMARK.json and benchmark/ only) the build fails and this script
# exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C "$root/benchmark" -o "$build/lazybench" .
cd "$root"
exec "$build/lazybench" "$@"
