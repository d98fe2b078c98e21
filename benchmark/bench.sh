#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source into
# .bench_build/ (Go's build cache too, so nothing is written outside the
# checkout) and run one workload. Arguments pass through:
#
#   bash benchmark/bench.sh --workload cnn1_single --seed 1 --seconds 15 --trace 0
#
# The benchmark is its own module (benchmark/go.mod) that builds against
# the repository one directory up; without the repository the build
# fails and nothing is printed on standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
