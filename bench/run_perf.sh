#!/usr/bin/env bash
# Regenerate the performance snapshots:
#
#   bench/run_perf.sh [--full] [build-dir]
#
# Produces in the current directory:
#   BENCH_engine.json    — micro_engine: timer-wheel engine on a mixed
#                          schedule/cancel workload (events/sec, p50/p99
#                          schedule/cancel latency) and on a 256-event
#                          lock-step gang (events/sec); no gate
#   BENCH_placement.json — ablate_placement: pure partitioning policies vs
#                          semi-partitioned overflow (admitted utilization,
#                          zero-miss executions, replay-oracle verdict)
#   BENCH_smi_resilience.json — ablate_smi_resilience: missing-time estimator
#                          accuracy vs SmiSource ground truth + storm-shedding
#                          A/B (baseline misses, resilient post-shed zero)
#   BENCH_telemetry.json — ablate_telemetry_overhead: flight-recorder A/B
#                          (zero added misses with telemetry on) + record
#                          cost vs pass span; this script fails if the
#                          overhead fraction reaches 2% (docs/OBSERVABILITY.md)
#   BENCH_spawn.json     — ablate_spawn: batched spawn + lock-free admission
#                          fast path; this script fails if batch throughput
#                          is < 5x the serial-slow cell at 1024 specs, or if
#                          the fast-path decision p99 exceeds 1 us
#   BENCH_cluster.json   — ablate_cluster: node-crash failover vs no-failover
#                          baseline; this script fails on any post-failover
#                          deadline miss or if failover availability is not
#                          strictly above the baseline
#   BENCH_figures.json   — wall time + shape-check results per figure binary,
#                          with the same env stamp as BENCH_engine.json
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

# Provenance: every BENCH_*.json gets an "env" object (host cores, compiler,
# build flags, git SHA).  The binaries read the SHA from this variable.
HRT_GIT_SHA=$(git -C "$(dirname "$0")" rev-parse HEAD 2>/dev/null || echo unknown)
export HRT_GIT_SHA

echo "== micro_engine -> BENCH_engine.json"
"$BIN/micro_engine" $MODE_FLAG --json=BENCH_engine.json
# The figure sweep below is stamped with this same env object.
ENV_JSON=$(sed -n 's/.*"env": \({[^}]*}\)}$/\1/p' BENCH_engine.json)
if [ -z "$ENV_JSON" ]; then
  echo "error: no env object in BENCH_engine.json" >&2
  exit 1
fi

echo "== ablate_placement -> BENCH_placement.json"
"$BIN/ablate_placement" $MODE_FLAG --json=BENCH_placement.json

echo "== ablate_smi_resilience -> BENCH_smi_resilience.json"
"$BIN/ablate_smi_resilience" $MODE_FLAG --json=BENCH_smi_resilience.json

echo "== ablate_telemetry_overhead -> BENCH_telemetry.json"
"$BIN/ablate_telemetry_overhead" $MODE_FLAG --json=BENCH_telemetry.json
# Hard gate: the recorder's amortized cost must stay under 2% of the mean
# scheduler pass span (docs/OBSERVABILITY.md).
awk '
  match($0, /"overhead_fraction": [0-9.eE+-]+/) {
    frac = substr($0, RSTART + 21, RLENGTH - 21) + 0
    if (frac >= 0.02) {
      printf "error: telemetry overhead %.4f >= 0.02 of mean pass span\n", frac
      exit 1
    }
    printf "telemetry overhead %.4f of mean pass span (< 0.02)\n", frac
  }
' BENCH_telemetry.json

echo "== ablate_spawn -> BENCH_spawn.json"
"$BIN/ablate_spawn" $MODE_FLAG --json=BENCH_spawn.json
# Hard gates: batched spawn must amortize to >= 5x the serial-slow cell's
# throughput, and the O(1) fast-path admission probe must decide in <= 1 us
# at p99 (docs/PERFORMANCE.md).
awk '
  match($0, /"batch_speedup_vs_serial_slow": [0-9.eE+-]+/) {
    s = substr($0, RSTART + 32, RLENGTH - 32) + 0
    if (s < 5.0) {
      printf "error: batch spawn speedup %.2fx < 5x serial throughput\n", s
      exit 1
    }
    printf "batch spawn speedup %.2fx over serial_slow (>= 5x)\n", s
  }
  match($0, /"fast_decision_p99_ns": [0-9.eE+-]+/) {
    p = substr($0, RSTART + 23, RLENGTH - 23) + 0
    if (p > 1000.0) {
      printf "error: fast-path decision p99 %.0f ns > 1000 ns\n", p
      exit 1
    }
    printf "fast-path decision p99 %.0f ns (<= 1000 ns)\n", p
  }
' BENCH_spawn.json

echo "== ablate_cluster -> BENCH_cluster.json"
"$BIN/ablate_cluster" $MODE_FLAG --json=BENCH_cluster.json
# Hard gates: failover must deliver zero post-failover deadline misses on the
# re-admitted RT work, and strictly more availability than the no-failover
# baseline (docs/CLUSTER.md).
awk '
  match($0, /"post_failover_misses": [0-9]+/) {
    m = substr($0, RSTART + 24, RLENGTH - 24) + 0
    if (m != 0) {
      printf "error: %d post-failover deadline misses (must be 0)\n", m
      exit 1
    }
  }
  match($0, /"availability_failover": [0-9.eE+-]+/) {
    af = substr($0, RSTART + 25, RLENGTH - 25) + 0
  }
  match($0, /"availability_baseline": [0-9.eE+-]+/) {
    ab = substr($0, RSTART + 25, RLENGTH - 25) + 0
    if (af <= ab) {
      printf "error: failover availability %.4f <= baseline %.4f\n", af, ab
      exit 1
    }
    printf "cluster failover availability %.4f > baseline %.4f, zero post-failover misses\n", af, ab
  }
' BENCH_cluster.json

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
    fail=$(grep -c '^\[shape FAIL\]' "$out" || true)
    rm -f "$out"
    [ $first -eq 1 ] || printf ', '
    first=0
    printf '{"figure": "%s", "wall_s": %s, "exit": %d, "shape_pass": %d, "shape_fail": %d}' \
      "$fig" "$wall_s" "$exit_code" "$pass" "$fail"
    echo "   $fig: ${wall_s}s (exit $exit_code, shapes $pass pass / $fail fail)" >&2
  done
  printf '], "env": %s}\n' "$ENV_JSON"
} > BENCH_figures.json

echo "wrote BENCH_engine.json BENCH_placement.json BENCH_smi_resilience.json BENCH_telemetry.json BENCH_spawn.json BENCH_cluster.json BENCH_figures.json"
