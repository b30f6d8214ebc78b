// Offline EDF replay oracle.
//
// Goossens et al.'s exact schedulability test (PAPERS.md) works by
// simulating the task set over a bounded interval; the same idea turned
// inward makes a correctness oracle for the scheduler itself: re-derive the
// per-CPU schedule that *should* have happened from first principles
// (release grid, EDF order, budget accounting) and compare it against the
// schedule the trace says *did* happen.  Divergences — a later-deadline
// thread dispatched over an earlier one, an open arrival left unserved past
// the dispatch-latency bound, a thread run far past its exhausted budget, or
// per-task arrival/completion/miss counters that disagree with the
// scheduler's own — are reported with timestamps.
//
// Input is the existing sim::Trace stream (the same records trace_export
// writes to CSV/VCD): kThreadActive/kThreadInactive delimit run intervals
// and kIrqEnter/kIrqExit delimit handler windows, which are excluded from
// budget charging exactly as the executor excludes them.  The oracle is
// per-CPU; threads are bound, so a machine-wide check is a loop over CPUs,
// and each call walks only its CPU's records (sim::Trace::positions).
//
// Accuracy model: the reference cannot see scheduler-internal times, so all
// comparisons carry explicit tolerances (ReplayConfig) derived from the
// machine spec — the APIC-tick pump slop, the jittered handler path length,
// and the maximum SMI missing-time when SMIs are enabled.  Enable the trace
// before admitting the tasks under test; records must cover the tasks' whole
// lifetime.  Sleeping inside an RT arrival is not modelled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/machine_spec.hpp"
#include "rt/constraints.hpp"
#include "sim/trace.hpp"

namespace hrt::audit {

/// One admitted RT constraint to replay (periodic or sporadic).
struct ReplayTask {
  std::uint32_t thread_id = 0;
  rt::Constraints constraints;
  sim::Nanos gamma = 0;  // admission time (Thread::rt.gamma)
};

struct ReplayTaskStats {
  std::uint32_t thread_id = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t misses = 0;
  sim::Nanos charged_ns = 0;  // total budget the trace delivered
};

struct Divergence {
  sim::Nanos time = 0;
  std::string detail;
};

struct ReplayConfig {
  /// Arrival pump slop: the scheduler opens arrivals up to this early.
  sim::Nanos slop = 21;
  /// A dispatch may trail the pass that decided it by the handler path; a
  /// task released within this window of a dispatch is not a violation.
  sim::Nanos dispatch_grace = sim::micros(15);
  /// An open earlier-deadline arrival must be running within this bound.
  sim::Nanos dispatch_latency = sim::micros(50);
  /// Charge-accounting drift below which an arrival counts as served.
  sim::Nanos budget_tolerance = sim::micros(5);
  /// Run time past an exhausted budget before it is a divergence.
  sim::Nanos overrun_tolerance = sim::micros(20);
};

/// Tolerances derived from a machine spec (tick, handler costs, SMI bound).
[[nodiscard]] ReplayConfig replay_config_for(const hw::MachineSpec& spec);

struct ReplayResult {
  std::vector<Divergence> divergences;
  std::vector<ReplayTaskStats> tasks;
  [[nodiscard]] bool ok() const { return divergences.empty(); }
  [[nodiscard]] const ReplayTaskStats* find(std::uint32_t thread_id) const;
};

/// Replay `cpu`'s schedule from the trace over [first record, end_time].
ReplayResult replay_edf(const sim::Trace& trace, std::uint32_t cpu,
                        const std::vector<ReplayTask>& tasks,
                        const ReplayConfig& cfg, sim::Nanos end_time);

/// Compare the oracle's per-task counters against the scheduler's own
/// (Thread::rt.arrivals/completions/misses); disagreement beyond `tolerance`
/// appends an unaccounted-miss divergence to `result`.
void verify_stats(ReplayResult& result, std::uint32_t thread_id,
                  std::uint64_t observed_arrivals,
                  std::uint64_t observed_completions,
                  std::uint64_t observed_misses, std::uint64_t tolerance);

}  // namespace hrt::audit
