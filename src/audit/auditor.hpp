// Scheduler invariant auditor (correctness tooling, not a feature).
//
// The paper's hard guarantees — "no deadline misses when admitted" — only
// hold if the eager-EDF engine's internal state is actually consistent:
// queue membership, budget conservation, and utilization accounting are
// exactly where latent bugs hide.  The Auditor is a cheap, config-toggleable
// set of invariant checks the schedulers and group collectives call into at
// natural quiesce points (end of a scheduling pass, arrival close, timer
// arm, barrier arrive/depart).  Violations either throw (tests) or
// accumulate into a bounded report that rt::report prints, so benchmarks can
// run with audits on without changing their output shape.
//
// The invariants checked (see docs/AUDIT.md for the full catalogue):
//   * queue-state: a thread is in at most one of pending/rt_run/nonrt/
//     sleepers, the heap structure and intrusive indices agree, and a
//     queued thread's State matches its queue.
//   * budget: an arrival is never charged more than sigma plus the timer
//     slop (and, when SMIs are enabled, a bounded missing-time allowance).
//   * utilization: each CPU's committed word in the placement ledger
//     (global/ledger.hpp) equals the ceil-rounded quanta of its admitted
//     periodic and sporadic threads, and its reserved word equals its
//     reservation list, both exactly, after every scheduling pass.
//   * edf-order: the eager engine never dispatches a later-deadline open RT
//     thread while an earlier-deadline one sits in the run queue.
//   * timer-arm: the one-shot timer is never re-armed at zero delay an
//     unbounded number of times in a row (a past-target storm).
//   * group: barrier arrivals/departures never exceed the expected count.
//   * replay: divergence found by the offline EDF replay oracle
//     (audit/replay.hpp) against a recorded trace.
//   * migration: every thread queued on a scheduler is owned by that CPU
//     (t->cpu agrees), and job-boundary migration hand-offs never fail
//     despite holding a reservation on the target.
//   * shed-state: every shed record held by the resilience storm controller
//     matches the live thread it names (idle-priority aperiodic while shed;
//     records never dangle past thread exit/reuse).
//   * effective-capacity: the per-CPU capacity published to the placement
//     ledger equals the controller's degraded value (base - missing-time
//     EWMA - reserve) and never exceeds the configured base capacity.
//   * slo-budget: a declared telemetry SLO (telemetry/slo.hpp) burned its
//     deadline-miss budget — the windowed miss fraction reached the budget
//     while the monitor had enough samples to trust the estimate.
//
// Compile with -DHRT_FORCE_AUDIT=1 (CMake option HRT_FORCE_AUDIT) to force
// every Auditor into enabled+throwing mode regardless of runtime config;
// CI's `audited` (Release) and `sanitizers` (ASan/UBSan) jobs run the
// tier-1 suite this way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hrt::audit {

enum class Invariant : std::uint8_t {
  kQueueState,
  kBudget,
  kUtilization,
  kEdfOrder,
  kTimerArm,
  kGroup,
  kReplay,
  kMigration,
  kShedState,
  kEffectiveCapacity,
  kSloBudget,
};

[[nodiscard]] const char* invariant_name(Invariant inv);

struct Violation {
  Invariant invariant;
  std::uint32_t cpu;
  sim::Nanos time;
  std::string detail;
};

/// Thrown by a throwing-mode Auditor at the point of violation.
class AuditError : public std::runtime_error {
 public:
  AuditError(Invariant inv, std::string what)
      : std::runtime_error(std::move(what)), invariant_(inv) {}
  [[nodiscard]] Invariant invariant() const { return invariant_; }

 private:
  Invariant invariant_;
};

struct Config {
  bool enabled = false;
  /// Throw AuditError at the violation site (tests) instead of accumulating
  /// into the report (benches).
  bool throw_on_violation = false;
  /// Violations recorded verbatim; beyond this only the counter grows.
  std::size_t max_recorded = 64;
  /// Extra tolerance for the budget-conservation check, on top of the
  /// scheduler's own timer slop.  Negative means auto: twice the slop plus
  /// 1 us, plus a missing-time allowance when the machine has SMIs.
  sim::Nanos budget_slop = -1;
};

class Auditor {
 public:
  Auditor() : Auditor(Config{}) {}
  explicit Auditor(Config cfg);

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Report a violation: throws in throwing mode, records otherwise.
  void record(Invariant inv, std::uint32_t cpu, sim::Nanos time,
              std::string detail);

  /// Checkpoint accounting, so tests can assert the audits actually ran.
  void count_check() { ++checks_run_; }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }

  [[nodiscard]] std::uint64_t total_violations() const {
    return total_violations_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t count(Invariant inv) const {
    return per_invariant_[static_cast<std::size_t>(inv)];
  }
  void clear();

 private:
  Config cfg_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t per_invariant_[11] = {};
};

}  // namespace hrt::audit
