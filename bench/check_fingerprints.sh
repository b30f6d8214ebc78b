#!/usr/bin/env bash
# Pin the end-to-end benchmark's seed-1 fingerprints under forced audits.
#
#   bench/check_fingerprints.sh [build-dir]     (from the repository root)
#
# Configures perfbench/ as a Release build with HRT_FORCE_AUDIT defined, so
# every scheduler, placement, resilience and telemetry invariant is armed
# and throws, builds hrt_e2e into build-dir (default
# build-perfbench-audited), and runs one iteration of each workload at seed
# 1 with tracing off.  Exits 1 if a run exits non-zero, reports a failure,
# or prints a fingerprint other than the one pinned below.  A fingerprint
# moves only when simulated behaviour changes; a change meant to alter it
# updates the pin here and says which pass moved it.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-build-perfbench-audited}"

mkdir -p "$build"
if ! { cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_CXX_FLAGS=-DHRT_FORCE_AUDIT=1 &&
       cmake --build "$build" --target hrt_e2e -j "$(nproc)"; } \
     >"$build/check_fingerprints.log" 2>&1; then
  cat "$build/check_fingerprints.log" >&2
  echo "[fingerprint FAIL] hrt_e2e did not build" >&2
  exit 1
fi

status=0
while read -r workload want; do
  if ! out="$("$build/hrt_e2e" --workload "$workload" --seed 1 --seconds 0 \
                --max-iterations 1 --trace 0)"; then
    echo "[fingerprint FAIL] $workload: hrt_e2e exited non-zero" >&2
    status=1
    continue
  fi
  tail -n 1 <<<"$out" | python3 -c '
import json, sys
workload, want = sys.argv[1], sys.argv[2]
r = json.loads(sys.stdin.read())
problems = ["failures: %s" % f for f in r["failures"]]
if r["fingerprint"] != want:
    problems.append("fingerprint %s, pinned %s" % (r["fingerprint"], want))
for p in problems:
    print("[fingerprint FAIL] %s: %s" % (workload, p), file=sys.stderr)
if not problems:
    print("[fingerprint PASS] %s %s" % (workload, want))
sys.exit(1 if problems else 0)
' "$workload" "$want" || status=1
done <<'PINNED'
missrate_phi256 a56f3f91a6082039
bsp_group_phi255 d0bd046946e76547
admit_churn_phi256 90726b688bf0c03e
PINNED
exit "$status"
