#include "nautilus/executor.hpp"

#include <stdexcept>
#include <utility>

#include "nautilus/behavior.hpp"
#include "nautilus/kernel.hpp"
#include "nautilus/sync.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::nk {

namespace {
constexpr int kPinThread = 0;
constexpr int kPinPass = 1;
constexpr int kPinIrq = 2;
}  // namespace

CpuExecutor::CpuExecutor(Kernel& kernel, std::uint32_t cpu_id,
                         SchedulerBase* sched)
    : kernel_(kernel),
      machine_(kernel.machine()),
      engine_(machine_.engine()),
      cpu_(machine_.cpu(cpu_id)),
      cpu_id_(cpu_id),
      sched_(sched) {}

sim::Nanos CpuExecutor::wall_now() const { return cpu_.tsc().wall_ns(); }

sim::Nanos CpuExecutor::cost_ns(sim::Cycles cycles) {
  if (cycles <= 0) return 0;
  const auto& spec = machine_.spec();
  const sim::Cycles j = cpu_.rng().jittered(cycles, spec.cost.jitter_rel_std);
  sim::Nanos ns = spec.freq.cycles_to_ns_ceil(j);
  return ns < 1 ? 1 : ns;
}

void CpuExecutor::begin(Thread* idle) {
  cpu_.set_deliver_hook([this](hw::Vector v) { deliver(v); });
  current_ = idle;
  idle->state = Thread::State::kRunning;
  ++idle->dispatches;
  run_span_start_ = engine_.now();
  run_span_open_ = true;
  sched_->attach(this);
  mode_ = Mode::kThread;
  start_action();
  sched_->arm_timer(wall_now());
}

void CpuExecutor::set_inflight(sim::Nanos end) {
  const sim::Nanos now = engine_.now();
  stage_start_ = now;
  stage_end_ = end < now ? now : end;
  inflight_ = engine_.schedule_at(stage_end_, [this] {
    inflight_.reset();
    end_stage();
  });
}

void CpuExecutor::end_stage() {
  switch (mode_) {
    case Mode::kThread:
      finish_current_action();
      start_action();
      maybe_enable_interrupts();
      return;
    case Mode::kPassHandler:
      finish_handler(/*via_irq=*/true);
      return;
    case Mode::kDeviceHandler:
      finish_device_handler();
      return;
    case Mode::kSchedCall:
      finish_sched_call();
      return;
    case Mode::kHalted:
      break;
  }
  throw std::logic_error("CpuExecutor: stage end while halted on cpu " +
                         std::to_string(cpu_id_));
}

void CpuExecutor::clear_inflight() {
  engine_.cancel(inflight_);
  inflight_.reset();
}

void CpuExecutor::close_run_span() {
  if (!run_span_open_ || current_ == nullptr) return;
  const sim::Nanos span = engine_.now() - run_span_start_;
  current_->total_cpu_ns += span;
  if (current_->is_realtime() && current_->rt.arrival_open) {
    current_->rt.budget_left -= span;
  }
  run_span_open_ = false;
}

void CpuExecutor::sync_run_span() {
  if (run_span_open_) {
    close_run_span();
    run_span_start_ = engine_.now();
    run_span_open_ = true;
  }
}

void CpuExecutor::deliver(hw::Vector v) {
  // The Cpu only invokes this when the vector is acceptable: interrupts on,
  // not frozen, TPR passed.  Modes kHandler/kSchedCall keep interrupts off,
  // so we are in kThread or kHalted here.
  cpu_.set_interrupts_enabled(false);
  const sim::Nanos now = engine_.now();
  machine_.trace().record(now, cpu_id_, sim::TraceKind::kIrqEnter, v);
  const auto& scope = kernel_.scope();
  if (scope.enabled && scope.cpu == cpu_id_) {
    machine_.gpio().set_pin(now, cpu_id_, kPinIrq, true);
  }
  if (mode_ == Mode::kThread) suspend_current();
  if (v == hw::kTimerVector) {
    begin_sched_handler(PassReason::kTimer);
  } else if (v == hw::kKickVector) {
    if (auto* tel = kernel_.telemetry()) {
      tel->recorder().record(cpu_id_, telemetry::EventKind::kKick, now, 0, 0);
    }
    begin_sched_handler(PassReason::kKick);
  } else {
    begin_device_handler(v);
  }
}

void CpuExecutor::suspend_current() {
  close_run_span();
  if (inflight_.valid()) {
    ++preemptions_;
    if (current_->action.kind == Action::Kind::kCompute) {
      sim::Nanos done = engine_.now() - stage_start_;
      if (done > current_->action_remaining) done = current_->action_remaining;
      current_->action_remaining -= done;
    } else if (current_->action.kind == Action::Kind::kSpinUntil) {
      // Interrupted during the spin-notice window; observe on resume.
      current_->spin_satisfied = true;
    }
    clear_inflight();
  }
}

void CpuExecutor::begin_sched_handler(PassReason reason) {
  const sim::Nanos now = engine_.now();
  const auto& cost = machine_.spec().cost;
  const sim::Nanos irq_ns = cost_ns(cost.irq_dispatch);

  // The pass decision is computed here; its time is charged as part of the
  // handler span that follows.
  stage_pass_ = sched_->pass(reason, wall_now());
  const PassResult& pr = stage_pass_;
  const sim::Nanos pass_ns = cost_ns(pr.pass_cycles);
  const sim::Nanos other_ns = cost_ns(cost.sched_other);
  const bool sw = pr.next != current_;
  const sim::Nanos sw_ns = sw ? cost_ns(cost.context_switch) : 0;

  const sim::Frequency f = machine_.spec().freq;
  overheads_.irq.add(static_cast<double>(f.ns_to_cycles(irq_ns)));
  overheads_.pass.add(static_cast<double>(f.ns_to_cycles(pass_ns)));
  overheads_.other.add(static_cast<double>(f.ns_to_cycles(other_ns)));
  if (sw) overheads_.swtch.add(static_cast<double>(f.ns_to_cycles(sw_ns)));
  ++overheads_.passes;
  if (sw) ++overheads_.switches;
  if (auto* tel = kernel_.telemetry()) {
    tel->on_pass_span(cpu_id_,
                      static_cast<double>(irq_ns + pass_ns + other_ns + sw_ns));
  }
  machine_.trace().record(now, cpu_id_, sim::TraceKind::kSchedPass,
                          static_cast<std::int64_t>(pass_seq_++));

  const auto& scope = kernel_.scope();
  if (scope.enabled && scope.cpu == cpu_id_) {
    engine_.schedule_at(
        now + irq_ns,
        [this] {
          machine_.gpio().set_pin(engine_.now(), cpu_id_, kPinPass,
                                  true);
        },
        sim::EventBand::kObserver);
    engine_.schedule_at(
        now + irq_ns + pass_ns,
        [this] {
          machine_.gpio().set_pin(engine_.now(), cpu_id_, kPinPass,
                                  false);
        },
        sim::EventBand::kObserver);
  }

  mode_ = Mode::kPassHandler;
  const sim::Nanos total = irq_ns + pass_ns + other_ns + sw_ns + pr.task_ns;
  set_inflight(now + total);
}

void CpuExecutor::begin_device_handler(hw::Vector v) {
  const sim::Nanos dur = cost_ns(kernel_.device_handler_cost(v));
  mode_ = Mode::kDeviceHandler;
  stage_vector_ = v;
  set_inflight(engine_.now() + dur);
}

void CpuExecutor::finish_device_handler() {
  const sim::Nanos now = engine_.now();
  const hw::Vector v = stage_vector_;
  machine_.trace().record(now, cpu_id_, sim::TraceKind::kIrqExit, v);
  const auto& scope = kernel_.scope();
  if (scope.enabled && scope.cpu == cpu_id_) {
    machine_.gpio().set_pin(now, cpu_id_, kPinIrq, false);
  }
  kernel_.run_device_callback(v);
  // Return from interrupt without a scheduler pass; if the top half woke
  // anything, it raised a kick that will be taken right after we re-enable
  // interrupts below.
  run_span_start_ = now;
  run_span_open_ = true;
  mode_ = Mode::kThread;
  start_action();
  maybe_enable_interrupts();
}

void CpuExecutor::finish_handler(bool via_irq) {
  // Take the pass result out of its slot: start_action below may begin the
  // next scheduler call, which refills it.
  const PassResult pr = std::move(stage_pass_);
  const sim::Nanos now = engine_.now();
  if (via_irq) {
    machine_.trace().record(now, cpu_id_, sim::TraceKind::kIrqExit,
                            hw::kTimerVector);
    const auto& scope = kernel_.scope();
    if (scope.enabled && scope.cpu == cpu_id_) {
      machine_.gpio().set_pin(now, cpu_id_, kPinIrq, false);
    }
  }
  for (const auto& cb : pr.task_callbacks) cb();
  Thread* prev = current_;
  if (pr.next != current_) do_switch(pr.next);
  if (prev != nullptr && prev != current_ &&
      prev->state == Thread::State::kExited) {
    kernel_.reap(prev);
  }
  sched_->arm_timer(wall_now());
  // Invariant-audit checkpoint: the switch has settled and every queued
  // thread should be in a consistent state (no-op unless audits are on).
  sched_->audit_state(wall_now());
  run_span_start_ = now;
  run_span_open_ = true;
  mode_ = Mode::kThread;
  start_action();
  maybe_enable_interrupts();
}

void CpuExecutor::do_switch(Thread* next) {
  const sim::Nanos now = engine_.now();
  Thread* prev = current_;
  const auto& scope = kernel_.scope();
  if (prev != nullptr) {
    machine_.trace().record(now, cpu_id_, sim::TraceKind::kThreadInactive,
                            prev->id);
    if (scope.enabled && scope.cpu == cpu_id_ && scope.watch_thread == prev) {
      machine_.gpio().set_pin(now, cpu_id_, kPinThread, false);
    }
    if (prev->state == Thread::State::kRunning) {
      prev->state = Thread::State::kReady;
    }
  }
  current_ = next;
  next->state = Thread::State::kRunning;
  ++next->dispatches;
  if (next->is_realtime() && next->rt.arrival_open &&
      !next->rt.dispatched_this_arrival) {
    next->rt.dispatched_this_arrival = true;
    next->rt.switch_latency.add(
        static_cast<double>(wall_now() - next->rt.arrival));
  }
  // Interrupt steering (section 3.5): while a hard real-time thread runs,
  // only scheduling-related vectors may be delivered.
  if (kernel_.options().tpr_steering) {
    cpu_.set_tpr(next->is_realtime() ? hw::kTprRealTime : hw::kTprOpen);
  }
  machine_.trace().record(now, cpu_id_, sim::TraceKind::kSwitch, next->id);
  machine_.trace().record(now, cpu_id_, sim::TraceKind::kThreadActive,
                          next->id);
  if (auto* tel = kernel_.telemetry()) {
    tel->recorder().record(cpu_id_, telemetry::EventKind::kSwitch, now,
                           static_cast<std::uint32_t>(next->id), 0);
  }
  if (scope.enabled && scope.cpu == cpu_id_ && scope.watch_thread == next) {
    machine_.gpio().set_pin(now, cpu_id_, kPinThread, true);
  }
}

void CpuExecutor::maybe_enable_interrupts() {
  if (mode_ == Mode::kHalted) {
    cpu_.set_interrupts_enabled(true);
    return;
  }
  if (mode_ == Mode::kThread) {
    const bool atomic = current_->action_active &&
                        current_->action.kind == Action::Kind::kAtomic;
    if (!atomic) cpu_.set_interrupts_enabled(true);
  }
  // Handlers and scheduler calls: interrupts stay masked until the stage
  // ends.
}

void CpuExecutor::start_action() {
  for (;;) {
    Thread* t = current_;
    const sim::Nanos now = engine_.now();
    if (!t->action_active) {
      ThreadCtx ctx{kernel_, *t, wall_now(), t->last_admit_ok};
      t->action = t->behavior->next(ctx);
      t->action_active = true;
      t->action_remaining = t->action.duration;
      t->spin_satisfied = false;
    }
    Action& a = t->action;
    switch (a.kind) {
      case Action::Kind::kCompute: {
        if (t->action_remaining > 0) {
          mode_ = Mode::kThread;
          set_inflight(now + t->action_remaining);
          return;
        }
        finish_current_action();
        continue;
      }
      case Action::Kind::kSpinUntil: {
        mode_ = Mode::kThread;
        if (a.flag->is_set() || t->spin_satisfied) {
          set_inflight(now + cost_ns(machine_.spec().cost.spin_notice));
        } else {
          if (t->spinning_on != a.flag) {
            a.flag->add_spinner(t);
            t->spinning_on = a.flag;
          }
          // Spinning: CPU is busy but no completion is scheduled; the wake
          // comes from notify_flag or from re-dispatch.
        }
        return;
      }
      case Action::Kind::kAtomic: {
        mode_ = Mode::kThread;
        cpu_.set_interrupts_enabled(false);
        const sim::Nanos hold =
            cost_ns(machine_.spec().freq.ns_to_cycles(a.duration));
        const sim::Nanos done = a.resource != nullptr
                                    ? a.resource->reserve(now, hold)
                                    : now + hold;
        set_inflight(done);
        return;
      }
      case Action::Kind::kSleep:
      case Action::Kind::kYield:
      case Action::Kind::kExit:
      case Action::Kind::kChangeConstraints:
        begin_sched_call();
        return;
      case Action::Kind::kHalt: {
        t->action_active = false;
        close_run_span();
        mode_ = Mode::kHalted;
        return;
      }
    }
  }
}

void CpuExecutor::finish_current_action() {
  Thread* t = current_;
  const sim::Nanos now = engine_.now();
  if (now == last_complete_time_) {
    if (++completions_at_time_ > 200000) {
      throw std::logic_error("behavior livelock: zero-width action loop on cpu " +
                             std::to_string(cpu_id_));
    }
  } else {
    last_complete_time_ = now;
    completions_at_time_ = 0;
  }
  Action a = std::move(t->action);
  t->action_active = false;
  t->action_remaining = 0;
  if (t->spinning_on != nullptr) {
    t->spinning_on->remove_spinner(t);
    t->spinning_on = nullptr;
  }
  t->spin_satisfied = false;
  if (a.on_complete) {
    ThreadCtx ctx{kernel_, *t, wall_now(), t->last_admit_ok};
    a.on_complete(ctx);
  }
}

void CpuExecutor::begin_sched_call() {
  cpu_.set_interrupts_enabled(false);
  close_run_span();
  const sim::Nanos now = engine_.now();
  const auto& cost = machine_.spec().cost;
  Thread* t = current_;
  Action a = std::move(t->action);
  t->action_active = false;

  sim::Nanos extra = 0;
  PassReason reason = PassReason::kYield;
  switch (a.kind) {
    case Action::Kind::kYield:
      reason = PassReason::kYield;
      break;
    case Action::Kind::kSleep: {
      t->state = Thread::State::kSleeping;
      t->wake_time = wall_now() + a.duration;
      sched_->on_sleep(*t, t->wake_time);
      reason = PassReason::kSleep;
      break;
    }
    case Action::Kind::kExit: {
      t->state = Thread::State::kExited;
      sched_->on_exit(*t);
      reason = PassReason::kExit;
      break;
    }
    case Action::Kind::kChangeConstraints: {
      const sim::Nanos adm_ns =
          cost_ns(sched_->admission_cost_cycles(*t, a.constraints));
      extra += adm_ns;
      // Gamma is the wall-clock time admission processing completes.
      const sim::Nanos gamma = wall_now() + adm_ns;
      t->last_admit_ok =
          sched_->change_constraints(*t, a.constraints, gamma);
      reason = PassReason::kChangeConstraints;
      break;
    }
    default:
      throw std::logic_error("begin_sched_call: not a scheduler action");
  }

  stage_pass_ = sched_->pass(reason, wall_now());
  const PassResult& pr = stage_pass_;
  const sim::Nanos pass_ns = cost_ns(pr.pass_cycles);
  const sim::Nanos other_ns = cost_ns(cost.sched_other);
  const bool sw = pr.next != t;
  const sim::Nanos sw_ns = sw ? cost_ns(cost.context_switch) : 0;

  const sim::Frequency f = machine_.spec().freq;
  overheads_.pass.add(static_cast<double>(f.ns_to_cycles(pass_ns)));
  overheads_.other.add(static_cast<double>(f.ns_to_cycles(other_ns)));
  if (sw) overheads_.swtch.add(static_cast<double>(f.ns_to_cycles(sw_ns)));
  ++overheads_.passes;
  if (sw) ++overheads_.switches;
  if (auto* tel = kernel_.telemetry()) {
    tel->on_pass_span(cpu_id_,
                      static_cast<double>(pass_ns + other_ns + sw_ns));
  }

  mode_ = Mode::kSchedCall;
  stage_on_complete_ = std::move(a.on_complete);
  const sim::Nanos total = extra + pass_ns + other_ns + sw_ns + pr.task_ns;
  set_inflight(now + total);
}

void CpuExecutor::finish_sched_call() {
  // The caller is still current: irqs stayed masked for the whole call.
  Thread* t = current_;
  const auto fx = std::move(stage_on_complete_);
  if (fx && t->state != Thread::State::kExited) {
    ThreadCtx ctx{kernel_, *t, wall_now(), t->last_admit_ok};
    fx(ctx);
  }
  finish_handler(/*via_irq=*/false);
}

void CpuExecutor::notify_flag(Thread* t, WaitFlag* f) {
  if (current_ == t && mode_ == Mode::kThread && t->action_active &&
      t->action.kind == Action::Kind::kSpinUntil && t->action.flag == f &&
      !inflight_.valid()) {
    // Actively spinning right now: the spinner observes the flag after the
    // cache line propagates.
    set_inflight(engine_.now() + cost_ns(machine_.spec().cost.spin_notice));
  } else {
    t->spin_satisfied = true;
  }
}

void CpuExecutor::on_freeze() {
  if (!inflight_.valid()) {
    freeze_pending_resume_ = false;
    return;
  }
  const sim::Nanos now = engine_.now();
  clear_inflight();
  if (mode_ == Mode::kThread &&
      current_->action.kind == Action::Kind::kCompute) {
    // Charge real progress; the remainder resumes after the freeze.  Note
    // the run span stays open: the scheduler will charge the frozen window
    // against the thread's budget, because software cannot tell missing
    // time from execution (section 3.6).
    sim::Nanos done = now - stage_start_;
    if (done > current_->action_remaining) done = current_->action_remaining;
    current_->action_remaining -= done;
    freeze_resume_delay_ = current_->action_remaining;
  } else {
    freeze_resume_delay_ = stage_end_ - now;
    if (freeze_resume_delay_ < 0) freeze_resume_delay_ = 0;
  }
  freeze_pending_resume_ = true;
}

void CpuExecutor::on_unfreeze(sim::Nanos /*duration*/) {
  if (!freeze_pending_resume_) return;
  freeze_pending_resume_ = false;
  set_inflight(engine_.now() + freeze_resume_delay_);
}

}  // namespace hrt::nk
