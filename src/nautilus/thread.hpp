// Kernel thread object.
//
// A thread belongs to one CPU's local scheduler at a time.  Work stealing
// (section 3.4) moves only unbound aperiodic threads; global placement
// re-homes a parked aperiodic thread (Kernel::migrate_aperiodic) and moves
// an admitted real-time thread only at a job boundary, with the target's
// utilization held by a reservation meanwhile
// (rt::LocalScheduler::request_migration, docs/GLOBAL.md).  RT bookkeeping
// (arrival, deadline, budget) is owned by the local scheduler but stored
// inline here so scheduler passes are O(1) per thread with no map lookups —
// the bounded-execution-time property of section 3.3 depends on that.
#pragma once

#include <cstdint>
#include <string>

#include "nautilus/action.hpp"
#include "rt/constraints.hpp"
#include "rt/queues.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hrt::nk {

class Behavior;

/// Sentinel for Thread::migrate_to: no migration pending.
inline constexpr std::uint32_t kNoMigrateTarget = 0xFFFFFFFFu;

class Thread {
 public:
  using Id = std::uint32_t;

  enum class State : std::uint8_t {
    kReady,     // in some scheduler queue (or pending arrival)
    kRunning,   // current on its CPU (includes spinning)
    kSleeping,  // timed block
    kExited,    // finished, awaiting reap
    kPooled,    // reaped, reusable
  };

  /// Real-time accounting, managed by the local scheduler.
  struct RtState {
    sim::Nanos gamma = 0;          // admission time
    sim::Nanos arrival = 0;        // current arrival's time
    sim::Nanos deadline = 0;       // current arrival's deadline
    sim::Nanos budget_left = 0;    // slice remaining for this arrival
    bool arrival_open = false;     // an arrival is being served
    bool in_pending = false;       // waiting for arrival time
    bool dispatched_this_arrival = false;
    double density = 0.0;          // sporadic: omega / (d - phase)
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;    // arrivals whose budget was delivered
    std::uint64_t misses = 0;         // late or skipped arrivals
    sim::RunningStats miss_ns;        // lateness of late completions
    sim::RunningStats switch_latency; // arrival -> first dispatch
  };

  Id id = 0;
  std::string name;
  std::uint32_t cpu = 0;     // owning local scheduler
  /// Pending job-boundary migration target (global placement, src/global/):
  /// the source scheduler holds a reservation there and hands the thread off
  /// at its next arrival close.
  std::uint32_t migrate_to = kNoMigrateTarget;
  bool bound = false;        // bound threads are never stolen
  bool is_idle = false;      // the per-CPU idle thread
  State state = State::kReady;
  rt::Constraints constraints = rt::Constraints::aperiodic();

  Behavior* behavior = nullptr;  // owned by the kernel alongside the thread

  // Action progress (managed by the executor).
  Action action;
  bool action_active = false;
  sim::Nanos action_remaining = 0;
  bool spin_satisfied = false;  // flag fired while we were descheduled
  class WaitFlag* spinning_on = nullptr;  // registered spinner on this flag
  bool last_admit_ok = true;

  // Scheduler linkage.
  std::uint64_t rr_seq = 0;      // round-robin ordering within a priority
  sim::Nanos wake_time = 0;      // for sleepers
  rt::HeapIndex heap_index;      // which scheduler heap holds us, and where
  RtState rt;

  // Lifetime statistics.
  sim::Nanos total_cpu_ns = 0;
  std::uint64_t dispatches = 0;

  [[nodiscard]] bool is_realtime() const { return constraints.is_realtime(); }

  /// Reset for reuse from the thread pool.
  void recycle(Id new_id, std::string new_name) {
    id = new_id;
    name = std::move(new_name);
    migrate_to = kNoMigrateTarget;
    state = State::kReady;
    constraints = rt::Constraints::aperiodic();
    behavior = nullptr;
    action = Action::exit();
    action_active = false;
    action_remaining = 0;
    spin_satisfied = false;
    spinning_on = nullptr;
    last_admit_ok = true;
    rr_seq = 0;
    wake_time = 0;
    heap_index = rt::HeapIndex{};
    rt = RtState{};
    total_cpu_ns = 0;
    dispatches = 0;
    bound = false;
    is_idle = false;
  }
};

}  // namespace hrt::nk
