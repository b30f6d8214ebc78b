// SMI storm controller (docs/RESILIENCE.md).
//
// SMIs are firmware-level and machine-wide: every CPU freezes, the OS can
// neither mask nor shorten them, and the only recourse is to *adapt the
// committed load* to the capacity that actually remains.  The controller
// closes that loop:
//
//   sample --> classify --> degrade --> drain --> shed --> restore
//
// Every sample interval it reads each CPU's MissingTimeEstimator (fed by
// the local scheduler's timer path; the ground-truth hw::SmiSource is never
// consulted), classifies sustained elevation as a *storm* with hysteresis
// (enter after N consecutive hot windows, exit after M consecutive calm
// ones), and publishes each CPU's degraded effective capacity and storm
// flag to its placement-ledger entry in the same step.  On a storm CPU
// whose committed utilization exceeds its degraded capacity it first
// *drains* — job-boundary migrations of movable periodic threads to quiet
// CPUs with headroom — and only if the overload persists
// *sheds*: aperiodics drop to idle priority first, then the least-critical
// periodic threads (highest Constraints::priority value) are demoted to
// idle-priority aperiodic, freeing their reservation while letting them run
// in slack.  When the storm clears, shed threads are restored in reverse
// criticality order, each through a fresh admission test, retrying until it
// passes.
//
// The controller runs as an engine observer, outside any CPU's handler
// sequence, so it never mutates scheduler queues directly: drains go through
// the existing request_migration protocol and shed/restore through
// LocalScheduler::defer_constraint_change, which applies the change at the
// next scheduling pass on the owning CPU.  Every state change is appended
// to the transition log (the auditable record), and two invariants are
// checked each sample when an auditor is attached: shed-state consistency
// and the effective-capacity ledger bound.
#pragma once

#include <cstdint>
#include <vector>

#include "resilience/estimator.hpp"
#include "rt/constraints.hpp"
#include "sim/engine.hpp"

namespace hrt::nk {
class Kernel;
class Thread;
}  // namespace hrt::nk

namespace hrt::global {
class GlobalScheduler;
}

namespace hrt::audit {
class Auditor;
}

namespace hrt::resilience {

struct Config {
  bool enabled = false;
  /// Copied into every LocalScheduler (estimator.enabled follows `enabled`).
  EstimatorConfig estimator;
  /// Safety margin subtracted from effective capacity (both the local
  /// admission test's and the one published to the placement ledger) on
  /// top of the estimate, absorbing estimator lag at storm onset.
  double capacity_reserve = 0.02;
};

struct Transition {
  enum class Kind : std::uint8_t {
    kStormEnter,
    kStormExit,
    kDrain,    // migration of a periodic thread off a storm CPU accepted
    kShed,     // thread demoted (periodic -> idle aperiodic, or priority)
    kRestore,  // shed thread re-admitted with its original constraints
  };
  Kind kind;
  std::uint32_t cpu;
  sim::Nanos time;
  std::uint32_t thread_id;  // 0 for storm enter/exit
  double util;              // utilization moved/freed, or observed fraction
};

class StormController {
 public:
  struct Stats {
    std::uint64_t samples = 0;
    std::uint64_t storms_entered = 0;
    std::uint64_t storms_exited = 0;
    std::uint64_t drains = 0;
    std::uint64_t sheds = 0;
    std::uint64_t restores = 0;
    std::uint64_t restore_retries = 0;  // re-admission failed; kept shed
  };

  StormController(Config cfg, double base_capacity)
      : cfg_(cfg), base_capacity_(base_capacity) {}

  /// Late wiring; all three outlive the controller's uses.
  void attach(nk::Kernel* kernel, global::GlobalScheduler* global,
              audit::Auditor* auditor);

  /// Begin the sampling loop (no-op when disabled).
  void start();

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }
  [[nodiscard]] bool in_storm(std::uint32_t cpu) const {
    return cpu < cpus_.size() && cpus_[cpu].storm;
  }
  /// Currently shed threads (applied and not yet restored).
  [[nodiscard]] std::size_t shed_count() const;

  /// Check the kShedState and kEffectiveCapacity invariants now (also runs
  /// automatically every sample).
  void audit(sim::Nanos now);

 private:
  struct ShedRecord {
    nk::Thread* thread;
    std::uint32_t id;        // guards against thread-pool reuse
    std::uint32_t home_cpu;  // storm CPU the shed happened on
    rt::Constraints original;
    double util;      // RT utilization freed (0 for aperiodic sheds)
    bool applied = false;    // deferred demotion has run
    bool restoring = false;  // deferred restore is in flight
  };
  struct CpuState {
    bool storm = false;
    std::uint32_t hot_streak = 0;
    std::uint32_t calm_streak = 0;
    double published = 0.0;  // capacity last written to the ledger
  };

  void sample();
  void classify(std::uint32_t cpu, double frac, sim::Nanos now);
  void respond(std::uint32_t cpu, sim::Nanos now);
  void shed_thread(nk::Thread* t, std::uint32_t cpu, sim::Nanos now,
                   double util);
  void try_restores(sim::Nanos now);
  void gc_records();
  void log(Transition::Kind k, std::uint32_t cpu, sim::Nanos t,
           std::uint32_t thread_id, double util);
  [[nodiscard]] sim::Engine& engine() const;
  [[nodiscard]] ShedRecord* find_record(const nk::Thread* t, std::uint32_t id);

  Config cfg_;
  double base_capacity_;
  nk::Kernel* kernel_ = nullptr;
  global::GlobalScheduler* global_ = nullptr;
  audit::Auditor* auditor_ = nullptr;
  std::vector<CpuState> cpus_;
  std::vector<ShedRecord> sheds_;
  std::vector<Transition> transitions_;
  sim::EventId sample_event_;
  Stats stats_;
};

}  // namespace hrt::resilience
