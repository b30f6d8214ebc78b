// The hard real-time local scheduler (section 3).
//
// One instance drives each CPU.  At its base it is a simple *eager* earliest
// deadline first engine with three queues:
//   * pending:   admitted RT threads waiting for their next arrival time
//   * rt run:    RT threads with an open arrival, ordered by deadline (EDF)
//   * non-rt run: aperiodic threads, priority + round-robin
// plus a sleep queue and the lightweight task queues.
//
// It is invoked only on a timer interrupt, a kick IPI from another local
// scheduler, or by a small set of current-thread actions (sleep, yield,
// exit, change constraints).  Every invocation is bounded: the queues have
// fixed capacity and the pass cost model charges base + per-thread work.
//
// Eagerness (section 3.6): a runnable real-time thread is switched to
// immediately, never delayed to the latest feasible start, so that SMI
// missing time striking mid-slice rarely pushes completion past the
// deadline.  The lazy variant is retained behind a config flag for the
// ablation benchmark.
//
// Admission state (section 3.2): committed utilization lives only in this
// CPU's Q32.32 word of the global::UtilizationLedger (global/ledger.hpp),
// which the scheduler feeds at every admit and release and probes before
// the exact set test.  The admitted periodic and sporadic threads are kept
// as sets; the exact tests run over them when the word probe rejects or
// does not apply.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "nautilus/kernel.hpp"
#include "nautilus/scheduler.hpp"
#include "nautilus/thread.hpp"
#include "resilience/estimator.hpp"
#include "rt/admission.hpp"
#include "rt/constraints.hpp"
#include "rt/fixed_point.hpp"
#include "rt/queues.hpp"

namespace hrt::audit {
class Auditor;
}

namespace hrt::global {
class UtilizationLedger;
}

namespace hrt::telemetry {
class Telemetry;
}

namespace hrt::rt {

class LocalScheduler final : public nk::SchedulerBase {
 public:
  struct Config {
    // Paper's default configuration (section 5.1): 99% utilization limit,
    // 10% sporadic reservation, 10% aperiodic reservation, aperiodic
    // round-robin at 10 Hz.
    double utilization_limit = 0.99;
    double sporadic_reservation = 0.10;
    double aperiodic_reservation = 0.10;
    sim::Nanos aperiodic_quantum = sim::millis(100);
    bool admission_enabled = true;  // figures 6-9 turn this off
    bool eager = true;              // ablation: lazy EDF when false
    /// O(1) lock-free admission fast path (docs/API.md): probe the Q32.32
    /// ledger and reserved words before running the O(n) analysis.  The
    /// probe's conservative rounding (rt/fixed_point.hpp) guarantees a fast
    /// admit implies the slow-path admit, so decisions are identical with
    /// the flag on or off; off is the serial-slow ablation baseline
    /// (bench/ablate_spawn).
    bool fast_admission = true;
    std::size_t max_threads = 1024;
    // Bounds on requestable constraints (section 3.3: "Bounds are also
    // placed on the granularity and minimum size of the timing
    // constraints"), enforced only when admission is enabled, on every
    // admission path alike.
    sim::Nanos min_period = sim::micros(1);
    sim::Nanos min_slice = sim::micros(1);

    // SMI missing-time resilience (docs/RESILIENCE.md).  The estimator
    // watches timer-delivery lateness at scheduler entry; when degraded
    // admission is on, the admission test subtracts the estimated stolen
    // fraction (plus a reserve) from the available RT utilization.
    resilience::EstimatorConfig estimator;
    bool degraded_admission = false;
    double resilience_reserve = 0.0;

    /// Deliberately re-introduce fixed bugs so the auditor's regression
    /// tests can prove each one is caught (test_audit.cpp); never set
    /// outside tests.
    struct TestFaults {
      bool sleeping_change_to_nonrt = false;  // sleeper -> nonrt_ on change
      bool stale_sporadic_tail = false;   // keep rr_seq + reservation on tail
      bool double_count_current = false;  // thread_count() counts cur twice
      bool rearm_past_quantum = false;    // arm quantum target in the past
      bool drop_ledger_release = false;   // ledger word misses releases
      bool stale_migrate_cpu = false;     // migrate without updating t->cpu
      // Failed admission consumes the caller's two-phase reservation (the
      // pre-fix change_constraints behavior: held utilization silently lost
      // on a rejected commit).
      bool consume_reservation_on_reject = false;
      // A failed migration hand-off releases the reservation on the
      // *original* CPU instead of the target, leaking the target's held
      // utilization (the spawn_auto admit-retry rollback bug).
      bool migration_rollback_wrong_cpu = false;
    };
    TestFaults test_faults;
  };

  struct Stats {
    std::uint64_t passes = 0;
    std::uint64_t timer_passes = 0;
    std::uint64_t kick_passes = 0;
    std::uint64_t admissions_ok = 0;
    std::uint64_t admissions_rejected = 0;
    std::uint64_t fast_admits = 0;      // fast path decided without analysis
    std::uint64_t fast_fallbacks = 0;   // fast path punted to the slow path
    std::uint64_t batch_reserves = 0;   // reserve_batch calls
    std::uint64_t batch_reserved_threads = 0;  // threads those calls admitted
    std::uint64_t tasks_inline = 0;
    std::uint64_t rr_rotations = 0;
    std::uint64_t zero_delay_arms = 0;  // one-shot armed with zero delay
    std::uint64_t migrations_requested = 0;  // request_migration accepted
    std::uint64_t migrations_out = 0;        // hand-offs completed from here
    std::uint64_t migrations_in = 0;         // hand-offs landed here
    std::uint64_t migration_failures = 0;    // hand-off fell back / demoted
  };

  /// Throws std::invalid_argument when the kernel has no placement ledger
  /// (Kernel::Options::placement_ledger), when a budget in `cfg` is NaN,
  /// negative or above 1, when the sporadic and aperiodic reservations sum
  /// to more than the utilization limit, or when resilience_reserve is NaN
  /// or negative.
  LocalScheduler(nk::Kernel& kernel, std::uint32_t cpu, Config cfg);

  // --- nk::SchedulerBase ---
  void attach(nk::CpuExecutor* exec) override { exec_ = exec; }
  nk::PassResult pass(nk::PassReason reason, sim::Nanos now) override;
  void arm_timer(sim::Nanos now) override;
  bool change_constraints(nk::Thread& t, const Constraints& c,
                          sim::Nanos gamma) override;
  [[nodiscard]] sim::Cycles admission_cost_cycles(
      const nk::Thread& t, const Constraints& c) const override;
  void enqueue(nk::Thread* t) override;
  void on_sleep(nk::Thread& t, sim::Nanos wake_local) override;
  void on_exit(nk::Thread& t) override;
  void submit_task(nk::Task task) override;
  [[nodiscard]] std::size_t stealable_count() const override;
  nk::Thread* try_steal() override;
  bool detach_for_migration(nk::Thread& t) override;
  void audit_state(sim::Nanos now) override;
  LocalScheduler* local() override { return this; }

  // --- introspection ---
  /// Committed periodic + sporadic utilization: this CPU's ledger word.
  [[nodiscard]] double admitted_utilization() const;
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] std::size_t rt_run_count() const { return rt_run_.size(); }
  [[nodiscard]] std::size_t nonrt_count() const { return nonrt_.size(); }
  [[nodiscard]] std::size_t sleeper_count() const { return sleepers_.size(); }
  [[nodiscard]] double available_rt_utilization() const {
    return cfg_.utilization_limit - cfg_.sporadic_reservation -
           cfg_.aperiodic_reservation;
  }
  /// RT availability after subtracting the estimated missing-time fraction
  /// and the configured reserve (identity when degraded admission is off).
  [[nodiscard]] double effective_rt_availability() const {
    double avail = available_rt_utilization();
    if (cfg_.degraded_admission) {
      avail -= estimator_.ewma_fraction() + cfg_.resilience_reserve;
    }
    return avail > 0 ? avail : 0.0;
  }
  [[nodiscard]] resilience::MissingTimeEstimator& missing_time() {
    return estimator_;
  }
  [[nodiscard]] const resilience::MissingTimeEstimator& missing_time() const {
    return estimator_;
  }
  /// Unsized-task access for the task-exec helper thread.
  [[nodiscard]] bool has_unsized_task() const {
    return !unsized_tasks_.empty();
  }
  nk::Task pop_unsized_task();

  // --- two-phase admission for group scheduling (section 4.4) ---
  // During group admission the requesting thread must stay aperiodic (it
  // still has barriers and the phase-correction step to execute), so the
  // utilization is reserved first and the class switch happens at the final
  // change_constraints.  change_constraints consumes a matching reservation
  // automatically.
  [[nodiscard]] bool reserve_constraints(nk::Thread& t, const Constraints& c);
  void cancel_reservation(nk::Thread& t);
  [[nodiscard]] bool has_reservation(const nk::Thread& t) const;

  // --- batched admission (System::spawn_batch, docs/API.md) ---
  // Admit a group of freshly created threads with ONE run of the admission
  // test for the whole group (one word probe over the summed demand, then
  // the exact tests), all-or-nothing: on success every thread holds a
  // two-phase reservation to be consumed by its first change_constraints;
  // on failure nothing is reserved.  A one-spec batch gets the verdict
  // reserve_constraints gives.
  // Aperiodic entries are accepted without a reservation (aperiodic
  // admission cannot fail).
  using Spec = std::pair<nk::Thread*, Constraints>;
  [[nodiscard]] bool reserve_batch(const std::vector<Spec>& items);

  // --- lock-free admission fast path (docs/API.md) ---
  // O(1) wait-free probe of the Q32.32 ledger and reserved words.  Returns
  // nullopt when the fast path does not apply (disabled, non-periodic
  // class); otherwise the conservative decision: true implies
  // the slow path would also admit, false may be spurious (the exact test
  // remains the authority inside the admission test).
  [[nodiscard]] std::optional<bool> fast_path_decision(
      const Constraints& c) const;
  /// Full admission answer for a hypothetical brand-new thread (no
  /// exclusions), fast path included; bench/fuzz probe, no state change
  /// beyond stats.
  [[nodiscard]] bool probe_admission(const Constraints& c);

  // --- job-boundary RT migration (global placement, docs/GLOBAL.md) ---
  // Move an admitted periodic thread to another CPU without ever splitting a
  // job: the target's utilization is held with a reservation immediately,
  // and the hand-off happens when the thread is parked between arrivals —
  // right away if it already is, otherwise at its next arrival close inside
  // pass().  Lifetime statistics (arrivals/misses) survive the move.
  bool request_migration(nk::Thread& t, std::uint32_t to);

  // --- deferred constraint changes (resilience shed/restore) ---
  // External subsystems (the storm controller runs as an engine observer,
  // outside any CPU's handler sequence) must not mutate scheduler state
  // directly: the executor may be mid-handler with a dispatch decision
  // already made.  They queue the change here instead; pass() applies it at
  // entry — the same quiesce point where arrival closes and migration
  // hand-offs run.  `done` is called with the admission outcome; the change
  // is dropped (done(false)) if the thread exited or moved CPUs meanwhile.
  void defer_constraint_change(nk::Thread& t, const Constraints& c,
                               std::function<void(nk::Thread*, bool)> done);

 private:
  struct ArrivalBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      return a->rt.arrival < b->rt.arrival;
    }
  };
  struct DeadlineBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      return a->rt.deadline < b->rt.deadline;
    }
  };
  struct AperBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      if (a->constraints.priority != b->constraints.priority) {
        return a->constraints.priority < b->constraints.priority;
      }
      return a->rr_seq < b->rr_seq;
    }
  };
  struct WakeBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      return a->wake_time < b->wake_time;
    }
  };

  void pump(sim::Nanos now);
  void open_arrival(nk::Thread* t);
  void close_arrival(nk::Thread* t, sim::Nanos now);
  void complete_migration(nk::Thread& t, sim::Nanos now);
  void ledger_admit(double util);
  void ledger_release(double util);
  nk::Thread* select_next(sim::Nanos now, nk::PassReason reason);
  /// Threads on this CPU, the per-thread term of the pass cost.
  [[nodiscard]] std::size_t thread_count() const;
  void detach_bookkeeping(nk::Thread* t);
  /// The admission test (section 3.2), the one every path calls: admit
  /// `specs` as one all-or-nothing group on top of this CPU's admitted set
  /// and reservations, leaving out `exclude`'s own admitted load and held
  /// reservation (it is being re-admitted; may be null).  Rejects malformed
  /// specs; with admission on, also specs below the granularity bounds.
  /// Periodic demand first probes the ledger word once (the fast path),
  /// then runs the exact EDF test; sporadic demand runs the exact density
  /// test against the sporadic reservation.  Changes only the fast-path
  /// stats.
  [[nodiscard]] bool admits(std::span<const Spec> specs,
                            const nk::Thread* exclude);
  /// Hold `c`'s utilization for `t` until its first change_constraints.
  void hold(nk::Thread& t, const Constraints& c);
  /// Count one admission decision and record it in the flight recorder.
  void record_admit(const nk::Thread& t, const Constraints& c, bool ok,
                    sim::Nanos now);
  [[nodiscard]] bool fast_words_fit(fp::Raw need) const;
  /// Fixed-point quantum already held by `t`'s periodic reservation (0 if
  /// none): a commit consuming it adds only the difference.
  [[nodiscard]] fp::Raw reserved_periodic_quantum(const nk::Thread& t) const;
  /// Admitted periodic threads and periodic reservations other than
  /// `exclude`'s, with room reserved for `extra` more.
  [[nodiscard]] std::vector<PeriodicTask> periodic_tasks_without(
      const nk::Thread* exclude, std::size_t extra) const;
  /// Admitted sporadic threads and sporadic reservations other than
  /// `exclude`'s, as (window, size) density tasks for the exact EDF test
  /// against the sporadic reservation, with room reserved for `extra` more.
  [[nodiscard]] std::vector<PeriodicTask> sporadic_tasks_without(
      const nk::Thread* exclude, std::size_t extra) const;
  void audit_queues(sim::Nanos now);
  void audit_utilization(sim::Nanos now);
  void audit_edf_order(const nk::Thread* next, sim::Nanos now);
  void audit_budget(const nk::Thread* t, sim::Nanos now);

  nk::Kernel& kernel_;
  std::uint32_t cpu_;
  Config cfg_;
  nk::CpuExecutor* exec_ = nullptr;
  sim::Nanos slop_;  // timer earliness tolerance (one APIC tick)
  audit::Auditor* auditor_ = nullptr;  // owned by System; may be null
  global::UtilizationLedger* ledger_;  // committed-utilization words
  telemetry::Telemetry* telemetry_ = nullptr;    // flight recorder; may be null
  sim::Nanos budget_audit_slop_ = 0;   // tolerance for the budget invariant
  std::uint32_t zero_arm_streak_ = 0;  // consecutive zero-delay one-shots

  // Intrusively indexed: a thread knows which of these heaps holds it, so
  // remove()/detach are O(log n) and cross-queue probes are O(1) misses.
  BoundedHeap<nk::Thread*, ArrivalBefore, MemberIndex<nk::Thread*>> pending_;
  BoundedHeap<nk::Thread*, DeadlineBefore, MemberIndex<nk::Thread*>> rt_run_;
  BoundedHeap<nk::Thread*, AperBefore, MemberIndex<nk::Thread*>> nonrt_;
  BoundedHeap<nk::Thread*, WakeBefore, MemberIndex<nk::Thread*>> sleepers_;
  std::vector<nk::Thread*> periodic_set_;  // admitted periodic threads
  std::vector<nk::Thread*> sporadic_set_;  // admitted sporadics, before tail

  std::deque<nk::Task> sized_tasks_;
  std::deque<nk::Task> unsized_tasks_;
  std::vector<std::pair<nk::Thread*, Constraints>> reservations_;

  struct DeferredChange {
    nk::Thread* thread;
    std::uint64_t id;  // guards against pool reuse between defer and apply
    Constraints constraints;
    std::function<void(nk::Thread*, bool)> done;
  };
  std::vector<DeferredChange> deferred_changes_;

  resilience::MissingTimeEstimator estimator_;
  sim::Nanos expected_fire_ = -1;  // target of the last armed one-shot
  sim::Nanos armed_delay_ = -1;    // its arming delay (the sampling gap)
  sim::Nanos pass_entry_ = -1;     // start of the handler span being timed
  sim::Nanos expected_span_ = 0;   // predicted cost of that span

  // Q32.32 sum of the reservation list (committed load is the ledger's
  // word).  Demand rounds up on entry, so ledger + reserved upper-bounds the
  // true sum and a word probe can admit without the O(n) analysis
  // (docs/API.md).
  fp::AdmissionWord fast_reserved_;
  std::uint64_t rr_seq_counter_ = 0;
  sim::Nanos quantum_start_ = 0;
  sim::Nanos lazy_wake_ = -1;  // lazy mode: scheduled latest-start wakeup

  Stats stats_;
};

/// Factory for Kernel::Options.
[[nodiscard]] nk::Kernel::SchedulerFactory make_scheduler_factory(
    LocalScheduler::Config cfg);

}  // namespace hrt::rt
