// The rebalancer (docs/GLOBAL.md): reactive migration proposals.
//
// It never preempts anything.  Every move it proposes is executed by the
// existing safe machinery — rt::LocalScheduler::request_migration for
// admitted periodic threads (job-boundary hand-off holding a reservation on
// the target) and nk::Kernel::migrate_aperiodic for parked non-RT threads —
// so the rebalancer can only fail to improve the packing, never break it.
//
// Trigger points:
//   * on_thread_exit — an exiting RT thread frees utilization, which may
//     leave the system lopsided; a deferred lightweight task re-levels it.
//   * make_room — an admission just failed on every attractive CPU; try to
//     migrate a small committed thread off one of them so a retry fits.
// Both defer the actual work through Kernel::submit_task so it runs in a
// scheduler pass *after* the triggering event has fully settled (an exiting
// thread still holds its utilization while its exit handler runs).
#pragma once

#include <cstdint>

#include "global/placement.hpp"
#include "rt/constraints.hpp"

namespace hrt::nk {
class Kernel;
class Thread;
}  // namespace hrt::nk

namespace hrt::grp {
class GroupRegistry;
}

namespace hrt::global {

class UtilizationLedger;

class Rebalancer {
 public:
  struct Stats {
    std::uint64_t exit_rebalances = 0;     // deferred passes scheduled
    std::uint64_t migrations_proposed = 0; // request_migration accepted
    std::uint64_t make_room_calls = 0;
    std::uint64_t make_room_migrations = 0;
    std::uint64_t relocations = 0;         // aperiodic re-homes completed
  };

  Rebalancer(const UtilizationLedger& ledger, const PlacementEngine& engine,
             Config cfg)
      : ledger_(ledger), engine_(engine), cfg_(cfg) {}

  /// Late wiring: the kernel exists only after System assembles it.
  void attach(nk::Kernel* kernel, grp::GroupRegistry* groups) {
    kernel_ = kernel;
    groups_ = groups;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// One re-leveling step: if the most- and least-committed CPUs differ by
  /// at least the configured threshold, propose migrating the largest
  /// movable periodic thread off the most-committed CPU to the first CPU of
  /// the ranking (PlacementEngine::rt_cpu_order) with room for it, provided
  /// the gap to that CPU exceeds the thread's demand.  Returns true if a
  /// migration was accepted.
  bool rebalance_once();

  /// Schedule a deferred rebalance pass on `cpu` (lightweight sized task),
  /// to run after the current event settles.
  void schedule_rebalance(std::uint32_t cpu);

  /// An RT thread on `cpu` is exiting: re-level once its utilization is
  /// actually released.
  void on_thread_exit(std::uint32_t cpu);

  /// Admission of `c` failed everywhere it was tried.  Walk the CPUs in
  /// ranking order; on the first where migrating one committed thread to
  /// the first other CPU of the ranking with room for it would create
  /// enough headroom, propose that migration and return the CPU (the
  /// caller should retry admission there after the hand-off completes).
  /// `for_thread` is excluded as a victim.  kInvalidCpu when no single
  /// migration helps.
  std::uint32_t make_room(const rt::Constraints& c,
                          const nk::Thread* for_thread);

  /// Re-home a (still aperiodic) thread once it parks: deferred task that
  /// calls Kernel::migrate_aperiodic, guarded against thread-pool reuse by
  /// re-checking the thread id.
  void relocate_when_parked(nk::Thread* t, std::uint32_t to);

  /// A thread is movable if it's live, not idle, not mid-migration, and not
  /// a group member (collectives assume stable membership CPUs).
  [[nodiscard]] bool movable(const nk::Thread* t) const;

 private:
  const UtilizationLedger& ledger_;
  const PlacementEngine& engine_;
  Config cfg_;
  nk::Kernel* kernel_ = nullptr;
  grp::GroupRegistry* groups_ = nullptr;
  Stats stats_;
};

}  // namespace hrt::global
