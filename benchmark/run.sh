#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given. Everything it writes stays inside the checkout: the
# Go build cache and the binaries under .bench_build/, outputs under
# benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="${GOCACHE:-$root/.bench_build/go-cache}"
export GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go -C benchmark build -o "$root/.bench_build/bin/benchmark" .
exec .bench_build/bin/benchmark "$@"
