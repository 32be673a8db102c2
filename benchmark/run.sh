#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the root of
# the checkout. Everything the build and the run write stays inside the
# checkout: the Go build cache and the binary under .bench_build/, temp arenas
# under .bench_tmp/ (removed when the run ends).
#
#   bash benchmark/run.sh --workload train-mem --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh -workload all -runs 10 -out setA.jsonl
#   bash benchmark/run.sh compare setA.jsonl setB.jsonl
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

# No module is downloaded (the benchmark needs only the repository and the
# standard library), so the toolchain stays offline and local.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
