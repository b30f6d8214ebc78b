#include "rt/local_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "audit/auditor.hpp"
#include "global/ledger.hpp"
#include "nautilus/executor.hpp"
#include "nautilus/kernel.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::rt {

namespace {
constexpr sim::Nanos kNoTimer = -1;
// Zero-delay one-shot re-arms in a row before the auditor calls it a storm.
constexpr std::uint32_t kZeroArmStormThreshold = 64;
// Queued lightweight tasks per CPU (sized and unsized queues each).
constexpr std::size_t kMaxTasks = 4096;

/// A budget must be a fraction of one CPU: NaN, negative or above-1 values
/// would make the capacity word meaningless.
void require_fraction(double v, const char* name) {
  if (!(v >= 0.0 && v <= 1.0)) {
    throw std::invalid_argument(std::string("LocalScheduler: ") + name +
                                " must be in [0, 1], got " +
                                std::to_string(v));
  }
}

/// A sporadic constraint as a density task: size over its deadline window,
/// the same division Constraints::utilization() makes.
PeriodicTask density_task(const Constraints& c) {
  return PeriodicTask{c.deadline_offset - c.phase, c.size, 0};
}
}  // namespace

LocalScheduler::LocalScheduler(nk::Kernel& kernel, std::uint32_t cpu,
                               Config cfg)
    : kernel_(kernel),
      cpu_(cpu),
      cfg_(cfg),
      slop_(kernel.machine().spec().timer.apic_tick_ns + 1),
      auditor_(kernel.auditor()),
      ledger_(kernel.options().placement_ledger),
      telemetry_(kernel.options().telemetry),
      pending_(cfg.max_threads),
      rt_run_(cfg.max_threads),
      nonrt_(cfg.max_threads),
      sleepers_(cfg.max_threads),
      estimator_(cfg.estimator) {
  if (ledger_ == nullptr) {
    throw std::invalid_argument(
        "LocalScheduler: Kernel::Options::placement_ledger is required");
  }
  require_fraction(cfg_.utilization_limit, "utilization_limit");
  require_fraction(cfg_.sporadic_reservation, "sporadic_reservation");
  require_fraction(cfg_.aperiodic_reservation, "aperiodic_reservation");
  // The capacity word would silently floor a negative RT capacity to 0.
  if (cfg_.sporadic_reservation + cfg_.aperiodic_reservation >
      cfg_.utilization_limit) {
    throw std::invalid_argument(
        "LocalScheduler: sporadic + aperiodic reservations exceed the "
        "utilization limit");
  }
  // A negative reserve would raise the degraded capacity.
  if (!(cfg_.resilience_reserve >= 0.0)) {
    throw std::invalid_argument(
        "LocalScheduler: resilience_reserve must be >= 0, got " +
        std::to_string(cfg_.resilience_reserve));
  }
  // Budget-conservation tolerance: timer quantization (arming rounds the
  // enforcement interrupt up, and it can land one pass late) plus, when the
  // machine has SMIs, a bounded missing-time allowance — frozen windows are
  // charged to the running thread's budget (section 3.6), so an arrival can
  // legitimately overrun sigma by the missing time it absorbed.
  const auto& spec = kernel.machine().spec();
  if (auditor_ != nullptr && auditor_->config().budget_slop >= 0) {
    budget_audit_slop_ = slop_ + auditor_->config().budget_slop;
  } else {
    budget_audit_slop_ = 2 * slop_ + sim::micros(1);
    if (spec.smi.enabled) {
      budget_audit_slop_ += 8 * spec.smi.max_duration_ns;
    }
  }
}

void LocalScheduler::open_arrival(nk::Thread* t) {
  ++t->rt.arrivals;
  t->rt.arrival_open = true;
  t->rt.dispatched_this_arrival = false;
  if (t->constraints.cls == ConstraintClass::kPeriodic) {
    t->rt.deadline = t->rt.arrival + t->constraints.period;
    t->rt.budget_left = t->constraints.slice;
  } else {
    // Sporadic: deadline fixed at admission; budget is the size.
    t->rt.budget_left = t->constraints.size;
  }
}

void LocalScheduler::close_arrival(nk::Thread* t, sim::Nanos now) {
  audit_budget(t, now);
  t->rt.arrival_open = false;
  ++t->rt.completions;
  if (now > t->rt.deadline) {
    ++t->rt.misses;
    t->rt.miss_ns.add(static_cast<double>(now - t->rt.deadline));
  }
  if (telemetry_ != nullptr) {
    telemetry_->on_completion(cpu_, now, static_cast<std::uint32_t>(t->id),
                              t->name, now - t->rt.deadline);
  }
  if (t->constraints.cls == ConstraintClass::kPeriodic) {
    // Next arrival is the current deadline; windows that already fully
    // elapsed while we were serving this one late are skipped and counted
    // as misses.
    sim::Nanos next_arrival = t->rt.deadline;
    std::uint64_t skipped = 0;
    while (next_arrival + t->constraints.period <= now + slop_) {
      ++t->rt.arrivals;
      ++t->rt.misses;
      ++skipped;
      next_arrival += t->constraints.period;
    }
    if (skipped != 0 && telemetry_ != nullptr) {
      telemetry_->on_skipped_windows(cpu_, now,
                                     static_cast<std::uint32_t>(t->id),
                                     t->name, skipped);
    }
    t->rt.arrival = next_arrival;
    t->rt.in_pending = true;
    if (!pending_.push(t)) {
      throw std::runtime_error("LocalScheduler: pending queue full");
    }
  } else {
    // Sporadic threads continue as aperiodic with their tail priority
    // (section 3.1).  The caller keeps the thread current; it is not queued.
    ledger_release(t->rt.density);
    std::erase(sporadic_set_, t);
    t->rt.density = 0.0;
    t->constraints = Constraints::aperiodic(t->constraints.priority);
    if (!cfg_.test_faults.stale_sporadic_tail) {
      // The tail enters the aperiodic class at the back of the round-robin
      // order: a stale rr_seq from before admission would let it jump ahead
      // of threads that have been waiting.  Any reservation made on its
      // behalf during the RT phase is utilization it no longer claims.
      t->rr_seq = ++rr_seq_counter_;
      cancel_reservation(*t);
    }
  }
}

void LocalScheduler::pump(sim::Nanos now) {
  while (!pending_.empty() && pending_.top()->rt.arrival <= now + slop_) {
    nk::Thread* t = pending_.pop();
    t->rt.in_pending = false;
    open_arrival(t);
    if (!rt_run_.push(t)) {
      throw std::runtime_error("LocalScheduler: rt run queue full");
    }
  }
  while (!sleepers_.empty() && sleepers_.top()->wake_time <= now + slop_) {
    nk::Thread* t = sleepers_.pop();
    t->state = nk::Thread::State::kReady;
    if (t->is_realtime() && t->rt.arrival_open) {
      // An RT thread that slept mid-arrival resumes EDF competition; parking
      // it with the aperiodics would let lower-class work starve it.
      if (!rt_run_.push(t)) {
        throw std::runtime_error("LocalScheduler: rt run queue full");
      }
    } else {
      t->rr_seq = ++rr_seq_counter_;
      if (!nonrt_.push(t)) {
        throw std::runtime_error("LocalScheduler: nonrt queue full");
      }
    }
  }
}

nk::Thread* LocalScheduler::select_next(sim::Nanos now,
                                        nk::PassReason reason) {
  nk::Thread* cur = exec_->current();
  const bool cur_runnable = cur != nullptr &&
                            cur->state == nk::Thread::State::kRunning &&
                            !cur->rt.in_pending;
  lazy_wake_ = kNoTimer;

  // Hard real-time first: EDF over the rt run queue and the current thread.
  const bool cur_rt_open = cur_runnable && cur->is_realtime() &&
                           cur->rt.arrival_open;
  if (cur_rt_open) {
    if (!rt_run_.empty() &&
        rt_run_.top()->rt.deadline < cur->rt.deadline) {
      nk::Thread* next = rt_run_.pop();
      if (!rt_run_.push(cur)) {
        throw std::runtime_error("LocalScheduler: rt run queue full");
      }
      return next;
    }
    return cur;
  }
  if (!rt_run_.empty()) {
    nk::Thread* top = rt_run_.top();
    if (!cfg_.eager && cur_runnable && !cur->is_idle) {
      // Lazy (non-work-conserving) variant: delay the switch to the latest
      // start that still meets the deadline, leaving margin only for the
      // *predictable* overheads (two scheduler invocations).  Missing time
      // is unpredictable by definition, so it is not in the margin — which
      // is exactly why this variant is SMI-fragile (section 3.6 ablation).
      const auto& cost = kernel_.machine().spec().cost;
      const sim::Nanos margin =
          kernel_.machine().spec().freq.cycles_to_ns_ceil(
              2 * (cost.irq_dispatch + cost.sched_pass_base +
                   cost.context_switch + cost.sched_other));
      const sim::Nanos latest_start =
          top->rt.deadline - top->rt.budget_left - margin;
      if (now < latest_start) {
        lazy_wake_ = latest_start;
        return cur;
      }
    }
    nk::Thread* next = rt_run_.pop();
    if (cur_runnable && !cur->is_idle) {
      cur->rr_seq = ++rr_seq_counter_;
      if (!nonrt_.push(cur)) {
        throw std::runtime_error("LocalScheduler: nonrt queue full");
      }
    }
    return next;
  }

  // Aperiodic: priority order, round-robin within a priority.
  if (cur_runnable && !cur->is_idle &&
      cur->constraints.cls == ConstraintClass::kAperiodic) {
    if (nonrt_.empty()) return cur;
    nk::Thread* top = nonrt_.top();
    const bool higher = top->constraints.priority < cur->constraints.priority;
    const bool quantum_expired =
        (reason == nk::PassReason::kTimer || reason == nk::PassReason::kKick)
            ? (now - quantum_start_) >= cfg_.aperiodic_quantum
            : reason == nk::PassReason::kYield;
    const bool rotate = quantum_expired &&
                        top->constraints.priority <= cur->constraints.priority;
    if (higher || rotate) {
      nk::Thread* next = nonrt_.pop();
      cur->rr_seq = ++rr_seq_counter_;
      if (!nonrt_.push(cur)) {
        throw std::runtime_error("LocalScheduler: nonrt queue full");
      }
      ++stats_.rr_rotations;
      return next;
    }
    return cur;
  }
  if (!nonrt_.empty()) return nonrt_.pop();
  if (cur_runnable) return cur;  // idle keeps running
  return kernel_.idle_thread(cpu_);
}

nk::PassResult LocalScheduler::pass(nk::PassReason reason, sim::Nanos now) {
  ++stats_.passes;
  if (reason == nk::PassReason::kTimer) ++stats_.timer_passes;
  if (reason == nk::PassReason::kKick) ++stats_.kick_passes;
  if (telemetry_ != nullptr) {
    telemetry_->recorder().record(cpu_, telemetry::EventKind::kPass, now, 0,
                                  static_cast<int>(reason));
  }

  // Missing-time estimation (section 3.6, docs/RESILIENCE.md): a machine
  // freeze covering a pending timer fire delays its delivery; the lateness
  // observed here is the only software-visible footprint of an SMI.  The
  // handler reads its wall clock before any handler cost is charged, so a
  // non-frozen fire arrives with lateness at most the APIC quantization.
  // Any pass past the armed fire time means delivery was delayed — a freeze
  // also delays completion events, and whichever delayed event pumps first
  // observes the same lateness, so the episode must not be gated on kTimer.
  if (cfg_.estimator.enabled) {
    estimator_.advance(now);
    if (expected_fire_ >= 0 && now >= expected_fire_) {
      estimator_.note_episode(now - expected_fire_, armed_delay_, now);
      expected_fire_ = kNoTimer;
    }
    pass_entry_ = now;
  }

  pump(now);

  // Shed/restore constraint changes queued by the storm controller apply
  // here, at the pass quiesce point (see defer_constraint_change).
  if (!deferred_changes_.empty()) {
    auto changes = std::move(deferred_changes_);
    deferred_changes_.clear();
    for (auto& d : changes) {
      const bool alive = d.thread->id == d.id && d.thread->cpu == cpu_ &&
                         d.thread->state != nk::Thread::State::kExited &&
                         d.thread->state != nk::Thread::State::kPooled;
      const bool ok = alive && change_constraints(*d.thread, d.constraints, now);
      if (d.done) d.done(d.thread, ok);
    }
  }

  // Account the current thread's real-time state.  The executor has already
  // charged its run span into budget_left.
  nk::Thread* cur = exec_->current();
  if (cur != nullptr && cur->is_realtime() && cur->rt.arrival_open &&
      cur->state == nk::Thread::State::kRunning && cur->rt.budget_left <= 0) {
    close_arrival(cur, now);
  }
  // A pending job-boundary migration fires the moment the current thread is
  // parked between arrivals (restricted migration: a job never splits across
  // CPUs).  Parked non-current threads were already handed off at request
  // time.
  if (cur != nullptr && cur->migrate_to != nk::kNoMigrateTarget &&
      cur->rt.in_pending && !cur->rt.arrival_open) {
    complete_migration(*cur, now);
  }

  nk::Thread* next = select_next(now, reason);
  audit_edf_order(next, now);
  if (next != cur) quantum_start_ = now;

  nk::PassResult result;
  result.next = next;

  // Sized tasks run directly by the scheduler, but never when they could
  // delay a real-time thread (section 3.1).
  if (!sized_tasks_.empty() && (next == nullptr || !next->is_realtime())) {
    sim::Nanos window = pending_.empty()
                            ? sim::seconds(3600)
                            : pending_.top()->rt.arrival - now;
    while (!sized_tasks_.empty() &&
           result.task_ns + sized_tasks_.front().size + slop_ <= window) {
      result.task_ns += sized_tasks_.front().size;
      result.task_callbacks.push_back(std::move(sized_tasks_.front().fn));
      sized_tasks_.pop_front();
      ++stats_.tasks_inline;
    }
  }

  const auto n = static_cast<sim::Cycles>(thread_count());
  const auto& cost = kernel_.machine().spec().cost;
  result.pass_cycles = cost.sched_pass_base + cost.sched_pass_per_thread * n;

  // Predict this handler span's cost from the same model the executor
  // charges, so arm_timer can attribute any stretch beyond it to a freeze
  // (see MissingTimeEstimator::note_span).  Admission and inline-task spans
  // have workload-dependent extra cost; exclude them from the signal.
  if (cfg_.estimator.enabled && pass_entry_ >= 0) {
    if (reason == nk::PassReason::kChangeConstraints || result.task_ns > 0) {
      pass_entry_ = kNoTimer;
    } else {
      sim::Cycles span_cycles = result.pass_cycles + cost.sched_other;
      if (result.next != cur) span_cycles += cost.context_switch;
      if (reason == nk::PassReason::kTimer || reason == nk::PassReason::kKick) {
        span_cycles += cost.irq_dispatch;
      }
      expected_span_ = kernel_.machine().spec().freq.cycles_to_ns(span_cycles);
    }
  }
  return result;
}

void LocalScheduler::arm_timer(sim::Nanos now) {
  // Freezes landing between the pass and this re-arm are invisible to the
  // delivery-lateness path: the fire expectation was already consumed, so
  // the only software-visible footprint is the handler span stretching past
  // its learned un-frozen minimum (see MissingTimeEstimator::note_span).
  // An armed fire crossed by the span is NOT charged here — its vector may
  // have pended benignly while the handler masked interrupts.
  if (cfg_.estimator.enabled && pass_entry_ >= 0) {
    estimator_.note_span(now - pass_entry_ - expected_span_, now);
    pass_entry_ = kNoTimer;
  }
  sim::Nanos next = kNoTimer;
  auto consider = [&next](sim::Nanos t) {
    if (t >= 0 && (next < 0 || t < next)) next = t;
  };

  nk::Thread* cur = exec_->current();
  if (cur != nullptr && cur->is_realtime() && cur->rt.arrival_open &&
      cur->state == nk::Thread::State::kRunning) {
    const sim::Nanos budget =
        cur->rt.budget_left > 0 ? cur->rt.budget_left : 0;
    // Budget enforcement rounds *up* by one tick: the constraint guarantees
    // *at least* sigma, so firing a tick late here is correct — whereas
    // firing early would burn an extra scheduler pass re-arming for the
    // residual few nanoseconds of budget.  Arrivals/deadlines keep the
    // conservative early-never-late rule (handled by the APIC floor
    // quantization plus the pump slop).
    consider(now + budget + slop_);
  }
  if (!pending_.empty()) consider(pending_.top()->rt.arrival);
  if (!sleepers_.empty()) consider(sleepers_.top()->wake_time);
  if (lazy_wake_ >= 0) consider(lazy_wake_);
  if (cur != nullptr && !cur->is_realtime() && !nonrt_.empty()) {
    // The rotation point can already be in the past: the quantum expired but
    // select_next kept the current thread (everything queued is lower
    // priority).  Re-arming at the stale target would fire a one-shot every
    // APIC tick forever; this pass already made the rotation decision for
    // the elapsed quantum, so the next check is one full quantum out.
    sim::Nanos rotation = quantum_start_ + cfg_.aperiodic_quantum;
    if (rotation <= now && !cfg_.test_faults.rearm_past_quantum) {
      rotation = now + cfg_.aperiodic_quantum;
    }
    consider(rotation);
  }
  // Safety net: if RT work is queued but not current (e.g. the lazy
  // variant is holding), make sure a pass happens by its deadline.
  if (!rt_run_.empty() &&
      (cur == nullptr || !cur->is_realtime())) {
    consider(rt_run_.top()->rt.deadline);
  }
  // Missing-time watchdog: bound the arming gap so freezes are sampled at a
  // known rate even on an otherwise idle CPU.  The cadence adapts — quiet
  // normally, alert once the estimate is elevated (see estimator.hpp).
  if (cfg_.estimator.enabled) {
    consider(now + estimator_.watchdog_period());
  }

  auto& apic = kernel_.machine().cpu(cpu_).apic();
  if (next < 0) {
    apic.cancel();
    expected_fire_ = kNoTimer;
    armed_delay_ = kNoTimer;
    return;
  }
  sim::Nanos delay = next - now;
  if (delay < 0) delay = 0;
  if (delay == 0) {
    ++stats_.zero_delay_arms;
    ++zero_arm_streak_;
    if (zero_arm_streak_ >= kZeroArmStormThreshold) {
      zero_arm_streak_ = 0;
      if (auditor_ != nullptr && auditor_->enabled()) {
        auditor_->record(audit::Invariant::kTimerArm, cpu_, now,
                         "one-shot timer re-armed at zero delay " +
                             std::to_string(kZeroArmStormThreshold) +
                             " times in a row (past-target storm)");
      }
    }
  } else {
    zero_arm_streak_ = 0;
  }
  expected_fire_ = now + delay;
  armed_delay_ = delay;
  if (telemetry_ != nullptr) {
    telemetry_->recorder().record(cpu_, telemetry::EventKind::kTimerArm, now,
                                  0, delay);
  }
  apic.arm_oneshot(delay);
}

void LocalScheduler::defer_constraint_change(
    nk::Thread& t, const Constraints& c,
    std::function<void(nk::Thread*, bool)> done) {
  deferred_changes_.push_back(DeferredChange{&t, t.id, c, std::move(done)});
}

bool LocalScheduler::fast_words_fit(fp::Raw need) const {
  // Conservative by construction: demand (committed + reserved + need) was
  // rounded up on entry, capacity rounds down here, so `fit` implies the
  // exact real inequality and therefore the slow path's answer.
  const fp::Raw cap = fp::from_double_floor(effective_rt_availability());
  const fp::Raw total = fp::sat_add(
      fp::sat_add(ledger_->committed_raw(cpu_), fast_reserved_.raw()), need);
  return total <= cap;
}

fp::Raw LocalScheduler::reserved_periodic_quantum(const nk::Thread& t) const {
  for (const auto& [rthread, rc] : reservations_) {
    if (rthread == &t && rc.cls == ConstraintClass::kPeriodic) {
      return fp::from_double_ceil(rc.utilization());
    }
  }
  return 0;
}

std::optional<bool> LocalScheduler::fast_path_decision(
    const Constraints& c) const {
  if (!cfg_.admission_enabled || !cfg_.fast_admission) return std::nullopt;
  if (c.cls != ConstraintClass::kPeriodic) return std::nullopt;
  if (!c.well_formed() || c.period < cfg_.min_period ||
      c.slice < cfg_.min_slice) {
    return false;  // structural rejection; identical to the slow answer
  }
  return fast_words_fit(fp::from_double_ceil(c.utilization()));
}

bool LocalScheduler::probe_admission(const Constraints& c) {
  const Spec spec{nullptr, c};
  return admits({&spec, 1}, nullptr);
}

bool LocalScheduler::admits(std::span<const Spec> specs,
                            const nk::Thread* exclude) {
  for (const auto& [t, c] : specs) {
    if (!c.well_formed()) return false;
  }
  if (!cfg_.admission_enabled) return true;
  // Aperiodic admission cannot fail (section 3.2).  Degraded-capacity
  // admission: with resilience on, the budget shrinks by the estimated
  // missing-time fraction plus the reserve, so a storm-hit CPU stops
  // accepting load it can no longer actually deliver.
  fp::Raw need = 0;
  std::size_t periodic = 0;
  std::size_t sporadic = 0;
  for (const auto& [t, c] : specs) {
    if (c.cls == ConstraintClass::kPeriodic) {
      if (c.period < cfg_.min_period || c.slice < cfg_.min_slice) {
        return false;
      }
      need = fp::sat_add(need, fp::from_double_ceil(c.utilization()));
      ++periodic;
    } else if (c.cls == ConstraintClass::kSporadic) {
      if (c.size < cfg_.min_slice) return false;
      ++sporadic;
    }
  }
  if (periodic > 0) {
    // Lock-free fast path: one word probe instead of the O(n) set build.
    // The ledger word already counts exclude's own old utilization and the
    // reserved word its reservation, both of which the exact test leaves
    // out — extra demand only, so a fast admit is still conservative.  A
    // periodic reservation held by exclude covers (part of) the new demand:
    // committing it releases the held quantum, so only the difference is
    // genuinely new.
    bool fit = false;
    if (cfg_.fast_admission) {
      if (exclude != nullptr) {
        const fp::Raw held = reserved_periodic_quantum(*exclude);
        need = need > held ? need - held : 0;
      }
      fit = fast_words_fit(need);
      ++(fit ? stats_.fast_admits : stats_.fast_fallbacks);
    }
    if (!fit) {
      auto set = periodic_tasks_without(exclude, periodic);
      for (const auto& [t, c] : specs) {
        if (c.cls == ConstraintClass::kPeriodic) {
          set.push_back(PeriodicTask{c.period, c.slice, c.phase});
        }
      }
      if (!edf_admissible(set, effective_rt_availability())) return false;
    }
  }
  if (sporadic > 0) {
    // The exact density test against the sporadic reservation; a
    // ceil-rounded word would refuse budgets that fill it exactly.
    auto set = sporadic_tasks_without(exclude, sporadic);
    for (const auto& [t, c] : specs) {
      if (c.cls == ConstraintClass::kSporadic) set.push_back(density_task(c));
    }
    if (!edf_admissible(set, cfg_.sporadic_reservation)) return false;
  }
  return true;
}

void LocalScheduler::hold(nk::Thread& t, const Constraints& c) {
  reservations_.emplace_back(&t, c);
  fast_reserved_.add(fp::from_double_ceil(c.utilization()));
}

void LocalScheduler::record_admit(const nk::Thread& t, const Constraints& c,
                                  bool ok, sim::Nanos now) {
  ++(ok ? stats_.admissions_ok : stats_.admissions_rejected);
  if (telemetry_ != nullptr) {
    telemetry_->recorder().record(
        cpu_,
        ok ? telemetry::EventKind::kAdmitOk : telemetry::EventKind::kAdmitReject,
        now, static_cast<std::uint32_t>(t.id),
        telemetry::to_ppm(c.utilization()));
  }
}

std::vector<PeriodicTask> LocalScheduler::sporadic_tasks_without(
    const nk::Thread* exclude, std::size_t extra) const {
  std::vector<PeriodicTask> set;
  set.reserve(sporadic_set_.size() + reservations_.size() + extra);
  for (const nk::Thread* s : sporadic_set_) {
    if (s != exclude) set.push_back(density_task(s->constraints));
  }
  for (const auto& [rt, rc] : reservations_) {
    if (rt != exclude && rc.cls == ConstraintClass::kSporadic) {
      set.push_back(density_task(rc));
    }
  }
  return set;
}

std::vector<PeriodicTask> LocalScheduler::periodic_tasks_without(
    const nk::Thread* exclude, std::size_t extra) const {
  std::vector<PeriodicTask> set;
  set.reserve(periodic_set_.size() + reservations_.size() + extra);
  for (const nk::Thread* p : periodic_set_) {
    if (p == exclude) continue;
    set.push_back(PeriodicTask{p->constraints.period, p->constraints.slice,
                               p->constraints.phase});
  }
  for (const auto& [rt, rc] : reservations_) {
    if (rt != exclude && rc.cls == ConstraintClass::kPeriodic) {
      set.push_back(PeriodicTask{rc.period, rc.slice, rc.phase});
    }
  }
  return set;
}

bool LocalScheduler::reserve_constraints(nk::Thread& t, const Constraints& c) {
  cancel_reservation(t);
  const Spec spec{&t, c};
  const bool ok = admits({&spec, 1}, &t);
  record_admit(t, c, ok, kernel_.machine().cpu(cpu_).tsc().wall_ns());
  if (ok) hold(t, c);
  return ok;
}

bool LocalScheduler::reserve_batch(const std::vector<Spec>& items) {
  ++stats_.batch_reserves;
  for (const auto& [t, c] : items) {
    if (t == nullptr) return false;
  }
  // ONE admission test for the whole group: one word probe over the summed
  // periodic quanta, or one exact analysis of (current set + every new
  // spec) — never one pass per spec.
  const bool ok = admits(items, nullptr);
  const sim::Nanos now = kernel_.machine().cpu(cpu_).tsc().wall_ns();
  for (const auto& [t, c] : items) {
    record_admit(*t, c, ok, now);
    if (!ok || c.cls == ConstraintClass::kAperiodic) continue;  // no hold
    cancel_reservation(*t);
    hold(*t, c);
    ++stats_.batch_reserved_threads;
  }
  return ok;
}

void LocalScheduler::cancel_reservation(nk::Thread& t) {
  for (auto it = reservations_.begin(); it != reservations_.end(); ++it) {
    if (it->first == &t) {
      fast_reserved_.release(fp::from_double_ceil(it->second.utilization()));
      reservations_.erase(it);
      return;
    }
  }
}

bool LocalScheduler::has_reservation(const nk::Thread& t) const {
  for (const auto& [rt, rc] : reservations_) {
    if (rt == &t) return true;
  }
  return false;
}

void LocalScheduler::detach_bookkeeping(nk::Thread* t) {
  pending_.remove(t);
  rt_run_.remove(t);
  nonrt_.remove(t);
  sleepers_.remove(t);
  if (t->constraints.cls == ConstraintClass::kPeriodic) {
    auto it = std::find(periodic_set_.begin(), periodic_set_.end(), t);
    if (it != periodic_set_.end()) {
      ledger_release(t->constraints.utilization());
      periodic_set_.erase(it);
    }
  }
  if (t->constraints.cls == ConstraintClass::kSporadic && t->rt.density > 0) {
    ledger_release(t->rt.density);
    std::erase(sporadic_set_, t);
    // Zero the released density: a second detach (exit after a failed
    // change) must not double-release it.
    t->rt.density = 0.0;
  }
  // A detach (exit, or a fresh change_constraints) abandons any in-flight
  // migration; release the utilization held on the target.
  if (t->migrate_to != nk::kNoMigrateTarget) {
    LocalScheduler* target = kernel_.local_scheduler(t->migrate_to);
    if (target != nullptr) target->cancel_reservation(*t);
    t->migrate_to = nk::kNoMigrateTarget;
  }
  t->rt.in_pending = false;
}

bool LocalScheduler::change_constraints(nk::Thread& t, const Constraints& req,
                                        sim::Nanos gamma) {
  Constraints c = req;
  if (c.align_release && c.cls == ConstraintClass::kPeriodic && c.period > 0 &&
      c.phase >= 0) {
    // Anchored release grid (constraints.hpp): resolve the phase against the
    // actual admission time so the first arrival is the earliest grid point
    // >= gamma, then re-anchor so the stored constraints name the same grid
    // (re-admission at any future gamma re-aligns identically).
    const sim::Nanos tau = c.period;
    const sim::Nanos keep = (c.phase / tau) * tau;  // pipeline offset
    const sim::Nanos res = c.phase % tau;           // requested grid residue
    sim::Nanos r = (c.release_anchor + res - gamma) % tau;
    if (r < 0) r += tau;
    sim::Nanos a2 = (c.release_anchor + res - r) % tau;
    if (a2 < 0) a2 += tau;
    c.release_anchor = a2;
    c.phase = keep + r;
  }
  // A two-phase reservation (group admission, migration hold, batch spawn)
  // is consumed only on a SUCCESSFUL commit: the admission test excludes
  // t's own reservation, so it needs no cancel-first, and a rejected commit
  // must leave the held utilization in place for the caller's retry or
  // rollback.  (The pre-fix code cancelled up front, silently losing the
  // hold on rejection — kept behind a test fault for the regression test.)
  const Spec spec{&t, c};
  const bool ok = admits({&spec, 1}, &t);
  record_admit(t, c, ok, gamma);
  if (!ok) {
    if (cfg_.test_faults.consume_reservation_on_reject) cancel_reservation(t);
    return false;
  }
  cancel_reservation(t);
  // A sleeping thread keeps sleeping across a class change: detaching pulls
  // it out of sleepers_, so it must be re-queued there (aperiodic) or left
  // to wake into its first arrival (RT classes pass through pending_, whose
  // pump ignores thread state, so the sleep is cut short by admission — the
  // constraint's phase is the tool for delaying the first arrival).
  const bool was_sleeping = t.state == nk::Thread::State::kSleeping;
  detach_bookkeeping(&t);
  t.constraints = c;
  t.rt = nk::Thread::RtState{};
  t.rt.gamma = gamma;
  switch (c.cls) {
    case ConstraintClass::kAperiodic: {
      if (was_sleeping && !cfg_.test_faults.sleeping_change_to_nonrt) {
        // wake_time is still valid; the pump wakes it on schedule.
        if (!sleepers_.push(&t)) {
          throw std::runtime_error("LocalScheduler: sleep queue full");
        }
      } else if (&t != exec_->current()) {
        t.rr_seq = ++rr_seq_counter_;
        if (!nonrt_.push(&t)) {
          throw std::runtime_error("LocalScheduler: nonrt queue full");
        }
      }
      break;
    }
    case ConstraintClass::kPeriodic: {
      if (was_sleeping) t.state = nk::Thread::State::kReady;
      ledger_admit(c.utilization());
      periodic_set_.push_back(&t);
      t.rt.arrival = gamma + c.phase;
      t.rt.in_pending = true;
      if (!pending_.push(&t)) {
        throw std::runtime_error("LocalScheduler: pending queue full");
      }
      break;
    }
    case ConstraintClass::kSporadic: {
      if (was_sleeping) t.state = nk::Thread::State::kReady;
      t.rt.density = c.utilization();
      ledger_admit(t.rt.density);
      sporadic_set_.push_back(&t);
      t.rt.arrival = gamma + c.phase;
      t.rt.deadline = gamma + c.deadline_offset;
      t.rt.in_pending = true;
      if (!pending_.push(&t)) {
        throw std::runtime_error("LocalScheduler: pending queue full");
      }
      break;
    }
  }
  return true;
}

sim::Cycles LocalScheduler::admission_cost_cycles(const nk::Thread& t,
                                                  const Constraints&) const {
  const auto& cost = kernel_.machine().spec().cost;
  // Committing an existing reservation skips the analysis: the utilization
  // was already accounted during group admission, so only the class switch
  // and queue moves remain.
  if (has_reservation(t)) return cost.admission_control / 20;
  return cost.admission_control;
}

void LocalScheduler::enqueue(nk::Thread* t) {
  if (t->is_realtime()) {
    throw std::logic_error(
        "LocalScheduler: only aperiodic threads may be enqueued directly");
  }
  t->state = nk::Thread::State::kReady;
  t->rr_seq = ++rr_seq_counter_;
  if (!nonrt_.push(t)) {
    throw std::runtime_error("LocalScheduler: nonrt queue full");
  }
}

void LocalScheduler::on_sleep(nk::Thread& t, sim::Nanos wake_local) {
  t.wake_time = wake_local;
  if (!sleepers_.push(&t)) {
    throw std::runtime_error("LocalScheduler: sleep queue full");
  }
}

void LocalScheduler::on_exit(nk::Thread& t) { detach_bookkeeping(&t); }

void LocalScheduler::submit_task(nk::Task task) {
  auto& q = task.size >= 0 ? sized_tasks_ : unsized_tasks_;
  if (q.size() >= kMaxTasks) {
    throw std::runtime_error("LocalScheduler: task queue full");
  }
  q.push_back(std::move(task));
}

nk::Task LocalScheduler::pop_unsized_task() {
  if (unsized_tasks_.empty()) {
    throw std::logic_error("LocalScheduler: no unsized task");
  }
  nk::Task t = std::move(unsized_tasks_.front());
  unsized_tasks_.pop_front();
  return t;
}

std::size_t LocalScheduler::stealable_count() const {
  std::size_t n = 0;
  nonrt_.for_each([&n](const nk::Thread* t) {
    if (!t->bound && !t->is_idle) ++n;
  });
  return n;
}

nk::Thread* LocalScheduler::try_steal() {
  return nonrt_
      .extract_if([](const nk::Thread* t) { return !t->bound && !t->is_idle; })
      .value_or(nullptr);
}

bool LocalScheduler::detach_for_migration(nk::Thread& t) {
  // RT threads migrate only through the job-boundary protocol below.
  if (t.is_realtime() || t.is_idle) return false;
  return nonrt_.remove(&t) || sleepers_.remove(&t);
}

// --- job-boundary RT migration (docs/GLOBAL.md) ---------------------------

void LocalScheduler::ledger_admit(double util) {
  // Demand rounds up, so the word never understates what is committed; a
  // release subtracts the same quantum its admit added.
  ledger_->on_admit_raw(cpu_, fp::from_double_ceil(util));
}

void LocalScheduler::ledger_release(double util) {
  if (cfg_.test_faults.drop_ledger_release) return;
  ledger_->on_release_raw(cpu_, fp::from_double_ceil(util));
}

double LocalScheduler::admitted_utilization() const {
  return ledger_->committed(cpu_);
}

bool LocalScheduler::request_migration(nk::Thread& t, std::uint32_t to) {
  if (to >= kernel_.num_cpus() || to == cpu_ || t.cpu != cpu_) return false;
  if (t.constraints.cls != ConstraintClass::kPeriodic) return false;
  if (t.state == nk::Thread::State::kExited ||
      t.state == nk::Thread::State::kPooled) {
    return false;
  }
  if (t.migrate_to != nk::kNoMigrateTarget) return false;  // already in flight
  LocalScheduler* target = kernel_.local_scheduler(to);
  if (target == nullptr) return false;
  // Hold the utilization on the target now, so the space is still there when
  // the job boundary arrives.
  if (!target->reserve_constraints(t, t.constraints)) return false;
  t.migrate_to = to;
  ++stats_.migrations_requested;
  if (telemetry_ != nullptr) {
    telemetry_->recorder().record(
        cpu_, telemetry::EventKind::kMigrateRequest,
        kernel_.machine().cpu(cpu_).tsc().wall_ns(),
        static_cast<std::uint32_t>(t.id), to);
  }
  // Parked between arrivals and not current: hand off immediately.  In every
  // other case pass() completes the migration at the next arrival close.
  nk::Thread* cur = exec_ != nullptr ? exec_->current() : nullptr;
  if (&t != cur && t.rt.in_pending && !t.rt.arrival_open) {
    complete_migration(t, kernel_.machine().cpu(cpu_).tsc().wall_ns());
  }
  return true;
}

void LocalScheduler::complete_migration(nk::Thread& t, sim::Nanos now) {
  const std::uint32_t to = t.migrate_to;
  t.migrate_to = nk::kNoMigrateTarget;  // before detach: keep the reservation
  LocalScheduler* target = kernel_.local_scheduler(to);
  if (target == nullptr) return;
  // Re-admission on the target starts a fresh RtState; carry the lifetime
  // statistics over so the migration is invisible in arrival/miss counters,
  // and rebase the phase so the next arrival lands exactly on schedule.
  const nk::Thread::RtState saved = t.rt;
  Constraints c = t.constraints;
  c.phase = saved.arrival > now ? saved.arrival - now : 0;
  detach_bookkeeping(&t);
  if (t.state == nk::Thread::State::kRunning) {
    // The executor's switch-away would flip this after the pass; the target
    // may audit its queues before then, so settle the state here.
    t.state = nk::Thread::State::kReady;
  }
  if (!cfg_.test_faults.stale_migrate_cpu) t.cpu = to;
  bool ok = target->change_constraints(t, c, now);
  if (ok) {
    ++stats_.migrations_out;
    ++target->stats_.migrations_in;
    if (telemetry_ != nullptr) {
      const auto tid = static_cast<std::uint32_t>(t.id);
      telemetry::FlightRecorder& rec = telemetry_->recorder();
      rec.record(cpu_, telemetry::EventKind::kMigrateOut, now, tid, to);
      rec.record(to, telemetry::EventKind::kMigrateIn, now, tid, cpu_);
    }
    kernel_.machine().send_ipi(cpu_, to, hw::kKickVector);
  } else {
    // The reservation held the target utilization, so this only happens
    // when the target's capacity shrank underneath the hold (degraded
    // admission during an SMI storm); put the thread back here (its
    // utilization was just released, so local re-admission passes), or
    // demote it rather than lose it.  The failed commit did NOT consume the
    // reservation, and it lives on the *target* CPU — release it there.
    // Releasing on the original candidate instead (the seeded
    // migration_rollback_wrong_cpu fault) leaks the target's held
    // utilization forever.
    ++stats_.migration_failures;
    if (cfg_.test_faults.migration_rollback_wrong_cpu) {
      cancel_reservation(t);
    } else {
      target->cancel_reservation(t);
    }
    t.cpu = cpu_;
    ok = change_constraints(t, c, now);
    if (auditor_ != nullptr && auditor_->enabled()) {
      auditor_->record(audit::Invariant::kMigration, cpu_, now,
                       "thread " + std::to_string(t.id) + " hand-off to cpu " +
                           std::to_string(to) +
                           " failed despite a reservation" +
                           (ok ? " (re-admitted locally)"
                               : " (demoted to aperiodic)"));
    }
    if (!ok) {
      t.constraints = Constraints::aperiodic(t.constraints.priority);
      t.rt = nk::Thread::RtState{};
      nk::Thread* cur = exec_ != nullptr ? exec_->current() : nullptr;
      if (&t != cur) enqueue(&t);
    }
  }
  t.rt.arrivals += saved.arrivals;
  t.rt.completions += saved.completions;
  t.rt.misses += saved.misses;
  t.rt.miss_ns = saved.miss_ns;
  t.rt.switch_latency = saved.switch_latency;
}

std::size_t LocalScheduler::thread_count() const {
  std::size_t n =
      pending_.size() + rt_run_.size() + nonrt_.size() + sleepers_.size();
  // The current thread is counted only when no queue holds it: mid-pass,
  // select_next may already have re-queued it into rt_run_/nonrt_ (rotation,
  // RT preemption), and counting it twice inflates the pass cost charged.
  const nk::Thread* cur =
      exec_ != nullptr ? exec_->current() : nullptr;
  if (cur != nullptr && (cur->heap_index.owner == nullptr ||
                         cfg_.test_faults.double_count_current)) {
    ++n;
  }
  return n;
}

// --- invariant audits (audit/auditor.hpp) ---------------------------------
//
// All checks are gated on the auditor being present and enabled, so a
// default-configured system pays one null-pointer test per hook.

void LocalScheduler::audit_state(sim::Nanos now) {
  if (auditor_ == nullptr || !auditor_->enabled()) return;
  audit_queues(now);
  audit_utilization(now);
}

void LocalScheduler::audit_queues(sim::Nanos now) {
  auditor_->count_check();
  auto bad = [&](const std::string& detail) {
    auditor_->record(audit::Invariant::kQueueState, cpu_, now, detail);
  };
  std::string why;
  if (!pending_.validate(&why)) bad("pending_: " + why);
  if (!rt_run_.validate(&why)) bad("rt_run_: " + why);
  if (!nonrt_.validate(&why)) bad("nonrt_: " + why);
  if (!sleepers_.validate(&why)) bad("sleepers_: " + why);

  const nk::Thread* cur = exec_ != nullptr ? exec_->current() : nullptr;
  auto who = [](const nk::Thread* t) {
    return "thread " + std::to_string(t->id) + " (" + t->name + ")";
  };
  // Migration invariant: everything queued here is owned by this CPU.  A
  // mismatch means a hand-off (steal, migrate) queued a thread without
  // re-homing it.
  auto owned = [&](const nk::Thread* t) {
    if (t->cpu != cpu_) {
      auditor_->record(audit::Invariant::kMigration, cpu_, now,
                       who(t) + " queued on cpu " + std::to_string(cpu_) +
                           " but owned by cpu " + std::to_string(t->cpu));
    }
  };
  pending_.for_each([&](const nk::Thread* t) {
    owned(t);
    if (t == cur) bad(who(t) + " is current but queued in pending_");
    if (!t->rt.in_pending) bad(who(t) + " in pending_ without in_pending set");
    if (!t->is_realtime()) bad(who(t) + " in pending_ but not real-time");
    if (t->state != nk::Thread::State::kReady) {
      bad(who(t) + " in pending_ with non-ready state");
    }
  });
  rt_run_.for_each([&](const nk::Thread* t) {
    owned(t);
    if (t == cur) bad(who(t) + " is current but queued in rt_run_");
    if (!t->is_realtime() || !t->rt.arrival_open) {
      bad(who(t) + " in rt_run_ without an open RT arrival");
    }
    if (t->rt.in_pending) bad(who(t) + " in rt_run_ with in_pending set");
    if (t->state != nk::Thread::State::kReady) {
      bad(who(t) + " in rt_run_ with non-ready state");
    }
  });
  nonrt_.for_each([&](const nk::Thread* t) {
    owned(t);
    if (t == cur) bad(who(t) + " is current but queued in nonrt_");
    if (t->is_realtime() && t->rt.arrival_open) {
      bad(who(t) + " has an open RT arrival but sits in nonrt_");
    }
    if (t->state != nk::Thread::State::kReady) {
      bad(who(t) + " in nonrt_ with non-ready state");
    }
  });
  sleepers_.for_each([&](const nk::Thread* t) {
    owned(t);
    if (t == cur) bad(who(t) + " is current but queued in sleepers_");
    if (t->state != nk::Thread::State::kSleeping) {
      bad(who(t) + " in sleepers_ but not sleeping");
    }
  });
}

void LocalScheduler::audit_utilization(sim::Nanos now) {
  auditor_->count_check();
  // Committed-word invariant: the ledger word equals the ceil-rounded
  // quanta of the admitted threads, recomputed from the periodic set and a
  // walk of every queue for sporadics.  Integer sums, so equality is exact.
  fp::Raw committed = 0;
  for (const nk::Thread* t : periodic_set_) {
    committed = fp::sat_add(
        committed, fp::from_double_ceil(t->constraints.utilization()));
  }
  auto add = [&committed](const nk::Thread* t) {
    if (t->constraints.cls == ConstraintClass::kSporadic) {
      committed = fp::sat_add(committed, fp::from_double_ceil(t->rt.density));
    }
  };
  pending_.for_each(add);
  rt_run_.for_each(add);
  nonrt_.for_each(add);
  sleepers_.for_each(add);
  const nk::Thread* cur = exec_ != nullptr ? exec_->current() : nullptr;
  if (cur != nullptr && cur->heap_index.owner == nullptr) add(cur);
  if (committed != ledger_->committed_raw(cpu_)) {
    auditor_->record(audit::Invariant::kUtilization, cpu_, now,
                     "ledger word " +
                         std::to_string(ledger_->committed_raw(cpu_)) +
                         " != recomputed admitted sum " +
                         std::to_string(committed));
  }
  // Reserved-word invariant: the reservation list and its Q32.32 mirror
  // must agree exactly (same ceil rounding on entry and exit).
  fp::Raw reserved_sum = 0;
  for (const auto& [rthread, rc] : reservations_) {
    reserved_sum =
        fp::sat_add(reserved_sum, fp::from_double_ceil(rc.utilization()));
  }
  if (reserved_sum != fast_reserved_.raw()) {
    auditor_->record(audit::Invariant::kUtilization, cpu_, now,
                     "reserved fast-path word " +
                         std::to_string(fast_reserved_.raw()) +
                         " != recomputed reservation sum " +
                         std::to_string(reserved_sum));
  }
  // Stale-reservation invariant: every hold must belong to a thread homed
  // here or migrating here.  A reservation whose owner neither lives on
  // this CPU nor targets it is a rollback leak (the migration hand-off
  // failure path released the wrong CPU's hold) and would depress this
  // CPU's admission capacity forever.
  for (const auto& [rthread, rc] : reservations_) {
    if (rthread->cpu != cpu_ && rthread->migrate_to != cpu_) {
      auditor_->record(
          audit::Invariant::kMigration, cpu_, now,
          "reservation held for thread " + std::to_string(rthread->id) +
              " which is homed on cpu " + std::to_string(rthread->cpu) +
              " and not migrating here (leaked rollback hold)");
    }
  }
}

void LocalScheduler::audit_edf_order(const nk::Thread* next, sim::Nanos now) {
  if (auditor_ == nullptr || !auditor_->enabled() || !cfg_.eager) {
    return;  // the lazy ablation delays RT dispatch by design
  }
  auditor_->count_check();
  if (rt_run_.empty()) return;
  const nk::Thread* top = rt_run_.top();
  if (next == nullptr || !next->is_realtime() || !next->rt.arrival_open) {
    auditor_->record(audit::Invariant::kEdfOrder, cpu_, now,
                     "dispatching a non-RT thread while thread " +
                         std::to_string(top->id) + " (deadline " +
                         std::to_string(top->rt.deadline) +
                         ") waits in rt_run_");
  } else if (top->rt.deadline < next->rt.deadline) {
    auditor_->record(audit::Invariant::kEdfOrder, cpu_, now,
                     "dispatching thread " + std::to_string(next->id) +
                         " (deadline " + std::to_string(next->rt.deadline) +
                         ") over earlier-deadline thread " +
                         std::to_string(top->id) + " (deadline " +
                         std::to_string(top->rt.deadline) + ")");
  }
}

void LocalScheduler::audit_budget(const nk::Thread* t, sim::Nanos now) {
  if (auditor_ == nullptr || !auditor_->enabled()) return;
  auditor_->count_check();
  const sim::Nanos overrun = -t->rt.budget_left;
  if (overrun > budget_audit_slop_) {
    const sim::Nanos sigma = t->constraints.cls == ConstraintClass::kPeriodic
                                 ? t->constraints.slice
                                 : t->constraints.size;
    auditor_->record(audit::Invariant::kBudget, cpu_, now,
                     "thread " + std::to_string(t->id) + " charged " +
                         std::to_string(sigma + overrun) +
                         "ns against a budget of " + std::to_string(sigma) +
                         "ns (tolerance " +
                         std::to_string(budget_audit_slop_) + "ns)");
  }
}

nk::Kernel::SchedulerFactory make_scheduler_factory(
    LocalScheduler::Config cfg) {
  return [cfg](nk::Kernel& k, std::uint32_t cpu) {
    return std::make_unique<LocalScheduler>(k, cpu, cfg);
  };
}

}  // namespace hrt::rt
