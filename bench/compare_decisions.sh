#!/usr/bin/env bash
# Show that a change moves no simulated decision on more seeds than the
# pinned seed-1 fingerprints cover.
#
#   bench/compare_decisions.sh PARENT_REF      (from anywhere in the checkout)
#
# Builds the end-to-end benchmark binary hrt_e2e twice, in a temporary
# directory outside the checkout: once from `git archive PARENT_REF` and
# once from this checkout's perfbench/ (which compiles the checkout's src/,
# including uncommitted edits).  Then runs admit_churn_phi256 seeds 1-60,
# bsp_group_phi255 seeds 1-6 and missrate_phi256 seeds 1-4 on both, one
# iteration each with tracing off, and compares each run's `fingerprint`
# and `deterministic` block.  Prints every run that differs (or fails) and
# exits 1 if any does; exits 0 when all 70 agree.  About 30 s per build
# and 1-2 minutes of runs on a 4-core host.  Set KEEP_COMPARE_DIR=1 to keep
# the builds.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT_REF" >&2
  exit 2
fi
ref="$1"
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/compare_decisions.XXXXXX")"
if [ "${KEEP_COMPARE_DIR:-0}" = 1 ]; then
  echo "[compare] builds kept in $work"
else
  trap 'rm -rf "$work"' EXIT
fi

mkdir "$work/parent"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"

build() {  # build SRC_DIR BUILD_DIR
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" --target hrt_e2e -j "$(nproc)"; } \
       >"$work/$(basename "$2").log" 2>&1; then
    cat "$work/$(basename "$2").log" >&2
    echo "[compare FAIL] hrt_e2e did not build from $1" >&2
    exit 1
  fi
}
build "$work/parent/perfbench" "$work/e2e-parent"
build "$root/perfbench" "$work/e2e-change"

# One line per run: the fingerprint and the sorted deterministic block, or
# a line starting FAILED when the run fails.
one() {  # one HRT_E2E WORKLOAD SEED
  local out
  if ! out="$("$1" --workload "$2" --seed "$3" --seconds 0 \
                --max-iterations 1 --trace 0)"; then
    echo "FAILED: hrt_e2e exited non-zero"
    return
  fi
  tail -n 1 <<<"$out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print(r["fingerprint"], json.dumps(r["deterministic"], sort_keys=True))' ||
    echo "FAILED: unreadable result line"
}

status=0
runs=0
while read -r workload seeds; do
  for seed in $(seq 1 "$seeds"); do
    a="$(one "$work/e2e-parent/hrt_e2e" "$workload" "$seed")"
    b="$(one "$work/e2e-change/hrt_e2e" "$workload" "$seed")"
    runs=$((runs + 1))
    if [ "$a" != "$b" ] || [[ "$a" == FAILED* ]]; then
      echo "[compare DIFF] $workload seed $seed"
      echo "  parent: $a"
      echo "  change: $b"
      status=1
    fi
  done
done <<'RUNS'
admit_churn_phi256 60
bsp_group_phi255 6
missrate_phi256 4
RUNS

if [ "$status" = 0 ]; then
  echo "[compare PASS] $runs runs agree with $ref"
fi
exit "$status"
