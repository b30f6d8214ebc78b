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
# and `deterministic` block.  The same two trees also build the ablation
# benches ablate_cluster, ablate_smi_resilience, ablate_placement and
# ablate_telemetry_overhead (paths the 70 runs never reach: the cluster,
# the storm controller, the packers, the telemetry export), run each in
# quick mode, and compare their JSON without `env` (and, for telemetry,
# without the host-timed `record_cost_ns` and `overhead_fraction`).
# Prints every run or file that differs (or fails) and exits 1 if any
# does; exits 0 when all 70 runs and all four files agree.  About 30 s per
# build and 1-2 minutes of runs on a 4-core host.  Set KEEP_COMPARE_DIR=1
# to keep the builds.
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

ablations="ablate_cluster ablate_smi_resilience ablate_placement
ablate_telemetry_overhead"

build() {  # build SRC_DIR BUILD_DIR TARGET...
  local src="$1" dir="$2"
  shift 2
  if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$dir" --target "$@" -j "$(nproc)"; } \
       >"$work/$(basename "$dir").log" 2>&1; then
    cat "$work/$(basename "$dir").log" >&2
    echo "[compare FAIL] $* did not build from $src" >&2
    exit 1
  fi
}
build "$work/parent/perfbench" "$work/e2e-parent" hrt_e2e
build "$root/perfbench" "$work/e2e-change" hrt_e2e
# shellcheck disable=SC2086  # one target per word
build "$work/parent" "$work/bench-parent" $ablations
# shellcheck disable=SC2086
build "$root" "$work/bench-change" $ablations

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

# The ablation benches, in quick mode, each side in a run directory of its
# own (both write the same file names).  Their JSON less the host-dependent
# fields: a changed file is a moved decision.
decisions() {  # decisions JSON_FILE
  python3 - "$1" <<'PY' || echo "FAILED: unreadable $1"
import json, sys
r = json.load(open(sys.argv[1]))
r.pop("env", None)
if r.get("benchmark") == "ablate_telemetry_overhead":
    r.pop("record_cost_ns", None)  # host-timed
    r.pop("overhead_fraction", None)  # derived from record_cost_ns
print(json.dumps(r, sort_keys=True))
PY
}
files=0
for side in parent change; do
  mkdir "$work/run-$side"
  for bench in $ablations; do
    (cd "$work/run-$side" &&
       "$work/bench-$side/bench/$bench" --json="$bench.json" \
         >"$bench.out" 2>&1) ||
      echo "FAILED: $bench exited non-zero" >"$work/run-$side/$bench.json"
  done
done
for bench in $ablations; do
  files=$((files + 1))
  a="$(decisions "$work/run-parent/$bench.json")"
  b="$(decisions "$work/run-change/$bench.json")"
  if [ "$a" != "$b" ] || [[ "$a" == FAILED* ]]; then
    echo "[compare DIFF] $bench.json"
    echo "  parent: $a"
    echo "  change: $b"
    status=1
  fi
done

if [ "$status" = 0 ]; then
  echo "[compare PASS] $runs runs and $files ablation files agree with $ref"
fi
exit "$status"
