#!/usr/bin/env bash
# Regenerate the performance snapshots:
#
#   bench/run_perf.sh [--full] [build-dir]
#
# Produces in the current directory:
#   BENCH_placement.json — ablate_placement: pure partitioning policies vs
#                          semi-partitioned overflow (admitted utilization,
#                          zero-miss executions, replay-oracle verdict)
#   BENCH_smi_resilience.json — ablate_smi_resilience: missing-time estimator
#                          accuracy vs SmiSource ground truth + storm-shedding
#                          A/B (baseline misses, resilient post-shed zero)
#   BENCH_telemetry.json — ablate_telemetry_overhead: flight-recorder A/B
#                          (zero added misses with telemetry on) + record
#                          cost vs pass span, which must stay under 2%
#                          (docs/OBSERVABILITY.md)
#   BENCH_spawn.json     — ablate_spawn: batched spawn + lock-free admission
#                          fast path; batch throughput must be >= 5x the
#                          serial-slow cell at 1024 specs, and the fast-path
#                          decision p99 at most 1 us
#   BENCH_cluster.json   — ablate_cluster: node-crash failover vs no-failover
#                          baseline; zero post-failover deadline misses, and
#                          failover availability strictly above the baseline
#   BENCH_figures.json   — wall time + shape-check results per figure binary,
#                          with the same env stamp as BENCH_placement.json
#
# Every binary asserts its own bounds as "[shape PASS]"/"[shape FAIL]" lines.
# The script runs them all, writes every JSON file, and then exits 1 if any
# binary printed a "[shape FAIL]" line.
#
# The committed PR-over-PR snapshots live in bench/snapshots/; refresh them
# with:  bench/run_perf.sh && cp BENCH_*.json bench/snapshots/
#
# Schema: docs/PERFORMANCE.md.
set -euo pipefail

MODE="quick"
MODE_FLAG=""
if [ "${1:-}" = "--full" ]; then
  MODE="full"
  MODE_FLAG="--full"
  shift
fi
BUILD="${1:-build}"
BIN="$BUILD/bench"

if [ ! -d "$BIN" ]; then
  echo "error: $BIN not found; build first: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

now_ns() { date +%s%N; }
count_fails() { grep -c '^\[shape FAIL\]' "$1" || true; }

# Provenance: every BENCH_*.json gets an "env" object (host cores, compiler,
# build flags, git SHA).  The binaries read the SHA from this variable.
HRT_GIT_SHA=$(git -C "$(dirname "$0")" rev-parse HEAD 2>/dev/null || echo unknown)
export HRT_GIT_SHA

FAILS=0
run_bench() {  # run_bench <binary> <json>: run it, echo it, count its FAILs
  local out
  out=$(mktemp)
  echo "== $1 -> $2"
  "$BIN/$1" $MODE_FLAG --json="$2" | tee "$out"
  FAILS=$((FAILS + $(count_fails "$out")))
  rm -f "$out"
}

run_bench ablate_placement BENCH_placement.json
# The figure sweep below is stamped with this same env object.
ENV_JSON=$(sed -n 's/.*"env": \({[^}]*}\)}$/\1/p' BENCH_placement.json)
if [ -z "$ENV_JSON" ]; then
  echo "error: no env object in BENCH_placement.json" >&2
  exit 1
fi
run_bench ablate_smi_resilience BENCH_smi_resilience.json
run_bench ablate_telemetry_overhead BENCH_telemetry.json
run_bench ablate_spawn BENCH_spawn.json
run_bench ablate_cluster BENCH_cluster.json

FIGURES="fig03_tsc_sync fig04_scope_trace fig05_overheads fig06_missrate_phi \
fig07_missrate_r415 fig08_misstime_phi fig09_misstime_r415 \
fig10_group_admission fig11_group_sync8 fig12_group_sync_scale \
fig13_throttle_coarse fig14_throttle_fine fig15_barrier_coarse \
fig16_barrier_fine ablate_eager_vs_lazy ablate_util_limit ablate_timer_mode \
ablate_irq_steering ablate_cyclic_executive ablate_admission_accuracy"

echo "== figure sweep -> BENCH_figures.json ($MODE mode)"
{
  printf '{"mode": "%s", "figures": [' "$MODE"
  first=1
  for fig in $FIGURES; do
    out=$(mktemp)
    t0=$(now_ns)
    if "$BIN/$fig" $MODE_FLAG >"$out" 2>&1; then exit_code=0; else exit_code=$?; fi
    t1=$(now_ns)
    wall_s=$(awk "BEGIN {printf \"%.3f\", ($t1 - $t0) / 1e9}")
    pass=$(grep -c '^\[shape PASS\]' "$out" || true)
    fail=$(count_fails "$out")
    FAILS=$((FAILS + fail))
    [ "$fail" -eq 0 ] || grep '^\[shape FAIL\]' "$out" >&2
    rm -f "$out"
    [ $first -eq 1 ] || printf ', '
    first=0
    printf '{"figure": "%s", "wall_s": %s, "exit": %d, "shape_pass": %d, "shape_fail": %d}' \
      "$fig" "$wall_s" "$exit_code" "$pass" "$fail"
    echo "   $fig: ${wall_s}s (exit $exit_code, shapes $pass pass / $fail fail)" >&2
  done
  printf '], "env": %s}\n' "$ENV_JSON"
} > BENCH_figures.json

echo "wrote BENCH_placement.json BENCH_smi_resilience.json BENCH_telemetry.json BENCH_spawn.json BENCH_cluster.json BENCH_figures.json"
if [ "$FAILS" -ne 0 ]; then
  echo "error: $FAILS [shape FAIL] line(s); see the output above" >&2
  exit 1
fi
