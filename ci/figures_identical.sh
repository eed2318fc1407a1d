#!/usr/bin/env bash
# Checks that two builds print byte-identical paper figures: fig5 (L1
# daily), fig6 (L2 daily), fig8 (L3 daily) and fig9 (load influence,
# which mines L1 once per hour), each run with its default arguments
# (the 7-day corpus at scale 1), plus fault_localization_accuracy, the
# one figure that ranks root causes on a mined dependency graph. A
# change that must not move any mined result or any answer on the
# mined graph passes it.
#
# Usage: ci/figures_identical.sh BASE_BUILD NEW_BUILD
#   BASE_BUILD, NEW_BUILD  CMake build directories of the two trees,
#                          each holding bench/fig5_l1_daily and the rest.
# Exit status: 0 when every figure matches, 1 when one differs (its diff
# is printed), 2 on a usage error or a figure that fails to run.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BASE_BUILD NEW_BUILD" >&2
  exit 2
fi
base=$1
new=$2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for fig in fig5_l1_daily fig6_l2_daily fig8_l3_daily fig9_load_influence \
    fault_localization_accuracy; do
  for side in base new; do
    dir=${!side}
    if ! "$dir/bench/$fig" >"$out/$fig.$side" 2>"$out/$fig.$side.err"; then
      echo "$fig failed in $dir:" >&2
      cat "$out/$fig.$side.err" >&2
      exit 2
    fi
  done
  if cmp -s "$out/$fig.base" "$out/$fig.new"; then
    echo "identical: $fig ($(wc -c <"$out/$fig.new") bytes)"
  else
    echo "DIFFERS: $fig"
    diff "$out/$fig.base" "$out/$fig.new" || true
    status=1
  fi
done
exit $status
