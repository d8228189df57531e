#!/usr/bin/env bash
# Build isimbench from this checkout's sources, then run one workload or
# all four.
#
#   benchmark/run.sh [W|all] [--seed S] [--trace 0|1] [--smoke]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# W is apps_cycle, mem_grid, fold_sampled or service_mix; the default is
# all of them.  --trace 1 makes a traced run: its spans and per-layer
# table go to benchmark/out/<W>-<S>.trace.json and its result line holds
# the per-layer metrics.  --seconds is part of the BENCHMARK.json calling
# convention and is ignored: each workload does a fixed amount of work,
# so that every commit measured does the same.  Build output goes to
# stderr.  Each run prints every metric with its unit and ends with one
# JSON result line.  The exit status is non-zero when the build fails or
# any check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
workload=all
seed=1
trace=0
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        -*) echo "run.sh: unknown option $1" >&2; exit 2 ;;
        *) workload="$1"; shift ;;
    esac
done

configure=(cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo)
if [ ! -f "$build/CMakeCache.txt" ] && command -v ninja >/dev/null; then
    configure+=(-G Ninja)
fi
"${configure[@]}" >&2
cmake --build "$build" -j "$(nproc)" >&2

if [ "$workload" = all ]; then
    workloads=(apps_cycle mem_grid fold_sampled service_mix)
else
    workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
    traced=()
    if [ "$trace" = 1 ]; then
        mkdir -p "$here/out"
        traced=(--traced "$here/out/$w-$seed.trace.json")
    fi
    "$build/isimbench" --workload "$w" --seed "$seed" \
        "${traced[@]}" "${smoke[@]}" || status=$?
done
exit "$status"
