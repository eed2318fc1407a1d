#!/usr/bin/env bash
# Runs each perf_e2e workload ten times, traced, at a tenth of the
# benchmark's scale and one second per run, for
# ci/check_bench_regression.py. The workloads take turns, so drift on the
# machine hits each of them alike. A run whose own correctness checks
# fail exits non-zero, and so does this script. ci/bench_baseline.json
# holds best-of-ten values, so the count is fixed.
#
#   ci/bench_e2e_runs.sh PERF_E2E OUT_DIR
#
# OUT_DIR gets <workload>-<i>.json (--out) and <workload>-<i>.trace.json
# (--trace) per run.
set -euo pipefail

binary=$1
out=$2
mkdir -p "$out"
export LOGMINE_EXECUTOR_THREADS=2
for i in $(seq 1 10); do
  for workload in text-1d columnar-7d stream-7d; do
    "$binary" --workload="$workload" --scale=0.1 --seconds=1 \
      --work="$out/work" --out="$out/$workload-$i.json" \
      --trace="$out/$workload-$i.trace.json"
  done
done
rm -rf "$out/work"
