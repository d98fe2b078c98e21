#!/usr/bin/env bash
# Run every workload of BENCHMARK.json once (one process each, one after
# the other; --trace 0 then --trace 1) and merge the results into
# benchmark/out/merged-<set>.json.
#
#   benchmark/run.sh            one set
#   benchmark/run.sh --twice    two sets, then the relative difference of
#                               every (workload, end-to-end metric) pair
#                               against its bound; exit 1 on a breach
#
# SEED (default 1) and SECONDS_PER_RUN (default: run_seconds of
# BENCHMARK.json) may be set in the environment.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
seed="${SEED:-1}"
secs="${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
export BENCH_GIT_COMMIT="${BENCH_GIT_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

run_set() {
    local set="$1" w t
    for w in $workloads; do
        for t in 0 1; do
            echo "== set $set: $w --trace $t" >&2
            bash "$here/bench.sh" --workload "$w" --seed "$seed" --seconds "$secs" --trace "$t" \
                >"benchmark/out/last-$w-trace$t.json" 2>"benchmark/out/last-$w-trace$t.log" || {
                echo "run failed; see benchmark/out/last-$w-trace$t.log" >&2
                tail -5 "benchmark/out/last-$w-trace$t.log" >&2
                exit 1
            }
        done
    done
    python3 "$here/merge.py" merge "$set" $workloads
}

mkdir -p benchmark/out
run_set A
if [ "${1:-}" = "--twice" ]; then
    run_set B
    python3 "$here/merge.py" compare A B
fi
