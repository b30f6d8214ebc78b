// The global placement subsystem's front door (docs/GLOBAL.md).
//
// GlobalScheduler bundles the three pieces — utilization ledger, placement
// engine, rebalancer — and exposes what rt::System needs:
//   * place()       — pick a CPU for a new thread (spawn_auto)
//   * auto_admit()  — wrap a behavior with admit/retry/rebalance logic
//   * plan_split()  — semi-partitioned overflow plan for a task too big for
//                     any single CPU (spawn_split)
// It is deliberately *not* a scheduler in the SchedulerBase sense: all
// per-CPU scheduling stays in rt::LocalScheduler, and the global layer only
// decides where threads live.  This mirrors the paper's architecture, where
// hard real-time guarantees are per-CPU and anything cross-CPU (work
// stealing, interrupt steering) merely chooses placements.
#pragma once

#include <cstdint>
#include <memory>

#include "global/ledger.hpp"
#include "global/placement.hpp"
#include "global/rebalancer.hpp"
#include "rt/constraints.hpp"

namespace hrt::nk {
class Behavior;
class Kernel;
}  // namespace hrt::nk

namespace hrt::grp {
class GroupRegistry;
}

namespace hrt::global {

class GlobalScheduler {
 public:
  struct Stats {
    std::uint64_t auto_placements = 0;      // place() calls
    std::uint64_t fallback_placements = 0;  // place() found no CPU fitting
    std::uint64_t split_plans = 0;          // successful plan_split calls
    std::uint64_t split_chunks = 0;         // chunks across those plans
    std::uint64_t admit_give_ups = 0;       // auto-admit exhausted retries
    std::uint64_t batch_placements = 0;     // place_batch calls
    std::uint64_t batch_specs = 0;          // specs across those batches
  };

  /// Throws std::invalid_argument for a NaN or negative
  /// cfg.rebalance_threshold or a negative cfg.rebalance_task_size.
  GlobalScheduler(std::uint32_t num_cpus, double cpu_capacity, Config cfg);

  /// Late wiring; the kernel and registry outlive this object's uses.
  void attach(nk::Kernel* kernel, grp::GroupRegistry* groups) {
    kernel_ = kernel;
    rebalancer_.attach(kernel, groups);
  }

  [[nodiscard]] UtilizationLedger& ledger() { return ledger_; }
  [[nodiscard]] const UtilizationLedger& ledger() const { return ledger_; }
  [[nodiscard]] const PlacementEngine& engine() const { return engine_; }
  [[nodiscard]] Rebalancer& rebalancer() { return rebalancer_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Choose a CPU for a new thread with constraints `c`: place_batch's
  /// scan on the one spec.  Always returns a valid CPU: when nothing fits,
  /// the first CPU in the ranking (the roomiest of the spec's partition) is
  /// used so the admission failure lands where a rebalance is most likely
  /// to help.
  [[nodiscard]] std::uint32_t place(const rt::Constraints& c) {
    ++stats_.auto_placements;
    const std::uint32_t cpu = engine_.place_batch({c}).front();
    // The scan falls back only when no CPU fits, so also not the one taken.
    if (cpu == kInvalidCpu || !engine_.fits(cpu, c.utilization())) {
      ++stats_.fallback_placements;
    }
    return cpu;
  }

  /// One placement pass for a whole batch of constraints (spawn_batch):
  /// snapshot the ledger once, pack worst-fit-decreasing against the
  /// scratch copy.  result[i] is the CPU for specs[i]; always valid.
  [[nodiscard]] std::vector<std::uint32_t> place_batch(
      const std::vector<rt::Constraints>& specs) {
    ++stats_.batch_placements;
    stats_.batch_specs += specs.size();
    return engine_.place_batch(specs);
  }

  /// Wrap `inner` with the auto-admission protocol: request `c`, and on
  /// rejection ask the rebalancer to make room (possibly re-homing this
  /// still-aperiodic thread to the CPU where room was made), sleep two
  /// periods, retry — up to three times, then exit.  Once admitted, `inner`
  /// runs unmodified except that its exit also triggers an exit-rebalance
  /// pass.
  [[nodiscard]] std::unique_ptr<nk::Behavior> auto_admit(
      const rt::Constraints& c, std::unique_ptr<nk::Behavior> inner);

  /// Semi-partitioned overflow plan for a periodic constraint too large for
  /// any single CPU's current headroom.  Headroom is read from the live
  /// ledger; under topology steering the interrupt-laden partition is
  /// excluded first and only used if the steered plan fails.
  [[nodiscard]] SplitPlan plan_split(const rt::Constraints& c,
                                     sim::Nanos min_slice);

  void note_give_up() { ++stats_.admit_give_ups; }

 private:
  Config cfg_;
  UtilizationLedger ledger_;
  PlacementEngine engine_;
  Rebalancer rebalancer_;
  nk::Kernel* kernel_ = nullptr;  // set by attach(); null in offline tests
  Stats stats_;
};

}  // namespace hrt::global
