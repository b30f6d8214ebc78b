// The interface a local scheduler presents to the kernel/executor layer.
//
// The concrete hard real-time scheduler lives in rt/; keeping the interface
// here lets the kernel host any per-CPU scheduling policy (the cyclic
// executive in rt/ce_scheduler.hpp implements it too).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rt/constraints.hpp"
#include "sim/time.hpp"

namespace hrt::rt {
class LocalScheduler;
}

namespace hrt::nk {

class CpuExecutor;
class Thread;

/// Why a scheduling pass is running.
enum class PassReason : std::uint8_t {
  kBoot,
  kTimer,
  kKick,
  kYield,
  kSleep,
  kExit,
  kChangeConstraints,
};

/// A lightweight task (section 3.1): a queued callback, cheaper than a
/// thread.  Size-tagged tasks (size >= 0) may be run directly by the
/// scheduler when they fit before the next RT arrival; unsized tasks
/// (size < 0) must go to the task-exec helper thread.
struct Task {
  std::function<void()> fn;
  sim::Nanos size = -1;
};

/// Outcome of one scheduling pass.
struct PassResult {
  Thread* next = nullptr;               // thread to run (never null; idle ok)
  sim::Cycles pass_cycles = 0;          // cost of the pass itself
  sim::Nanos task_ns = 0;               // inline sized-task execution time
  std::vector<std::function<void()>> task_callbacks;  // run at handler end
};

class SchedulerBase {
 public:
  virtual ~SchedulerBase() = default;

  /// Wire up the executor this scheduler drives.  Called once at boot.
  virtual void attach(CpuExecutor* exec) = 0;

  /// One scheduling pass at local wall time `local_now`.  Must be
  /// deterministic given its queue state and `local_now` — group scheduling
  /// (section 4.1) depends on identical inputs producing identical outputs.
  virtual PassResult pass(PassReason reason, sim::Nanos local_now) = 0;

  /// Program the one-shot timer for the next scheduling event, given that
  /// the chosen thread resumes at `local_now`.
  virtual void arm_timer(sim::Nanos local_now) = 0;

  /// Local admission control.  `gamma` is the wall-clock admission time.
  /// Returns false (and leaves the thread's constraints untouched) on
  /// rejection.  Aperiodic requests always succeed.
  virtual bool change_constraints(Thread& t, const rt::Constraints& c,
                                  sim::Nanos gamma) = 0;

  /// Cost of admission-control processing for this request, in cycles.
  /// Schedulers may discount requests that only commit an existing
  /// reservation (group admission's final step, section 4.4).
  [[nodiscard]] virtual sim::Cycles admission_cost_cycles(
      const Thread& t, const rt::Constraints& c) const = 0;

  /// Make a (new or migrated) ready thread runnable on this CPU.
  virtual void enqueue(Thread* t) = 0;

  /// Thread-context events.
  virtual void on_sleep(Thread& t, sim::Nanos wake_local) = 0;
  virtual void on_exit(Thread& t) = 0;

  /// Lightweight tasks.
  virtual void submit_task(Task task) = 0;

  /// Work stealing support (aperiodic, unbound threads only).
  [[nodiscard]] virtual std::size_t stealable_count() const = 0;
  virtual Thread* try_steal() = 0;

  /// Detach a named non-realtime thread from this scheduler's run or sleep
  /// queue so the kernel can re-home it (deliberate migration, src/global/ —
  /// unlike try_steal the caller picks the thread, and bound threads are
  /// eligible because the placement layer owns the binding decision).
  /// Returns false when the thread is not detachable here.  Default:
  /// migration unsupported.
  virtual bool detach_for_migration(Thread& /*t*/) { return false; }

  /// The hard real-time scheduler behind this interface, or null for any
  /// other policy.  The kernel reads it once per CPU when it builds the
  /// schedulers (Kernel::local_scheduler), so no caller has to cast.
  virtual rt::LocalScheduler* local() { return nullptr; }

  /// Invariant-audit checkpoint (audit/auditor.hpp), called by the executor
  /// after every handler once the switch has settled.  Default: no checks.
  virtual void audit_state(sim::Nanos /*local_now*/) {}
};

}  // namespace hrt::nk
