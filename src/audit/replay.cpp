#include "audit/replay.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hrt::audit {

namespace {

constexpr sim::Nanos kNever = std::numeric_limits<sim::Nanos>::max();

struct TaskState {
  ReplayTask task;
  ReplayTaskStats stats;
  bool open = false;
  bool done = false;           // sporadic whose one arrival closed
  bool closing = false;        // budget exhausted; grid advance deferred to
                               // the next IRQ (the scheduler's close pass)
  sim::Nanos close_completion = 0;
  sim::Nanos next_release = 0; // absolute, meaningful while !open && !done
  sim::Nanos release_time = 0; // current arrival's release (grid time)
  sim::Nanos ready_time = 0;   // when the scheduler could first serve it:
                               // max(release, previous arrival's close)
  sim::Nanos deadline = 0;
  sim::Nanos remaining = 0;    // budget left per the reference accounting
};

class Replayer {
 public:
  Replayer(const std::vector<ReplayTask>& tasks, const ReplayConfig& cfg)
      : cfg_(cfg) {
    for (const ReplayTask& t : tasks) {
      if (!t.constraints.is_realtime()) {
        throw std::invalid_argument("replay_edf: task is not real-time");
      }
      TaskState ts;
      ts.task = t;
      ts.stats.thread_id = t.thread_id;
      ts.next_release = t.gamma + t.constraints.phase;
      if (t.constraints.cls == rt::ConstraintClass::kSporadic) {
        ts.deadline = t.gamma + t.constraints.deadline_offset;
      }
      tasks_.push_back(std::move(ts));
    }
  }

  ReplayResult run(const sim::Trace& trace, std::uint32_t cpu,
                   sim::Nanos end_time) {
    const std::vector<sim::TraceRecord>& records = trace.records();
    for (const std::uint32_t i : trace.positions(cpu)) {
      const sim::TraceRecord& r = records[i];
      switch (r.kind) {
        case sim::TraceKind::kThreadActive:
          advance_to(r.time);
          on_active(static_cast<std::uint32_t>(r.value), r.time);
          break;
        case sim::TraceKind::kThreadInactive:
          advance_to(r.time);
          on_inactive(static_cast<std::uint32_t>(r.value), r.time);
          break;
        case sim::TraceKind::kIrqEnter:
          advance_to(r.time);
          // The scheduler closes an exhausted arrival at its next pass, and
          // its window-skip rule runs against that pass's clock — which is
          // this IRQ's timestamp, not the exhaustion instant.
          for (TaskState& ts : tasks_) {
            if (ts.closing) finalize_close(ts, r.time);
          }
          ++irq_depth_;
          break;
        case sim::TraceKind::kIrqExit:
          advance_to(r.time);
          if (irq_depth_ > 0) --irq_depth_;
          break;
        default:
          break;
      }
    }
    for (TaskState& ts : tasks_) {
      if (ts.closing) finalize_close(ts, ts.close_completion);
    }
    if (end_time > now_) advance_to(end_time);
    ReplayResult out;
    out.divergences = std::move(divergences_);
    for (TaskState& ts : tasks_) out.tasks.push_back(ts.stats);
    return out;
  }

 private:
  TaskState* find(std::uint32_t id) {
    for (TaskState& ts : tasks_) {
      if (ts.task.thread_id == id) return &ts;
    }
    return nullptr;
  }

  void diverge(sim::Nanos t, std::string detail) {
    divergences_.push_back(Divergence{t, std::move(detail)});
  }

  /// Deadline the active thread is effectively serving, for EDF comparisons.
  /// A task whose release is due within the pump slop counts as open: the
  /// scheduler legitimately opens arrivals that early.
  sim::Nanos effective_deadline(const TaskState& ts, sim::Nanos t) const {
    if (ts.open) return ts.deadline;
    if (!ts.done && ts.next_release <= t + cfg_.slop) {
      return ts.task.constraints.cls == rt::ConstraintClass::kPeriodic
                 ? ts.next_release + ts.task.constraints.period
                 : ts.deadline;
    }
    return kNever;
  }

  sim::Nanos active_effective_deadline(sim::Nanos t) const {
    if (active_id_ == 0) return kNever;
    for (const TaskState& ts : tasks_) {
      if (ts.task.thread_id == active_id_) return effective_deadline(ts, t);
    }
    return kNever;  // a non-RT thread is running
  }

  /// A still-unserved arrival (ignoring ones within charge-drift of done).
  bool claims_cpu(const TaskState& ts) const {
    return ts.open && ts.remaining > cfg_.budget_tolerance;
  }

  void open_arrival(TaskState& ts, sim::Nanos t) {
    ts.open = true;
    ++ts.stats.arrivals;
    ts.release_time = ts.next_release;
    // Under overload a release lands while the task's previous arrival is
    // still in service; the scheduler can only open it at the close.  The
    // dispatch-promptness clocks run from that point, not the grid time.
    ts.ready_time = std::max(ts.next_release, t);
    if (ts.task.constraints.cls == rt::ConstraintClass::kPeriodic) {
      ts.deadline = ts.next_release + ts.task.constraints.period;
      ts.remaining = ts.task.constraints.slice;
    } else {
      ts.remaining = ts.task.constraints.size;
    }
  }

  void close_arrival(TaskState& ts, sim::Nanos completion, bool assume_ontime) {
    ts.open = false;
    ++ts.stats.completions;
    if (!assume_ontime && completion > ts.deadline) {
      ++ts.stats.misses;
    }
    if (ts.task.constraints.cls == rt::ConstraintClass::kPeriodic) {
      ts.closing = true;
      ts.close_completion = completion;
    } else {
      ts.done = true;
    }
    if (ts.task.thread_id == active_id_) rearm_after_active_close(completion);
  }

  /// Advance the release grid once the scheduler's close time is known.
  /// Mirrors the scheduler: the next window opens at the deadline, and
  /// windows that fully elapsed while this one was served late are skipped
  /// and counted as misses — judged against the close pass's clock.
  void finalize_close(TaskState& ts, sim::Nanos sched_close) {
    ts.closing = false;
    sim::Nanos next = ts.deadline;
    const sim::Nanos period = ts.task.constraints.period;
    while (next + period <= sched_close + cfg_.slop) {
      ++ts.stats.arrivals;
      ++ts.stats.misses;
      next += period;
    }
    ts.next_release = next;
  }

  void rearm_after_active_close(sim::Nanos t) {
    for (const TaskState& ts : tasks_) {
      if (ts.task.thread_id != active_id_ && claims_cpu(ts)) {
        must_switch_by_ = std::min(must_switch_by_, t + cfg_.dispatch_latency);
        return;
      }
    }
  }

  void process_releases(sim::Nanos t) {
    for (TaskState& ts : tasks_) {
      // Heal charge-accounting drift: an arrival the scheduler closed but
      // the reference still holds a sliver of budget for would otherwise
      // wedge the release grid.
      if (ts.open && ts.remaining <= cfg_.budget_tolerance &&
          t >= ts.deadline) {
        close_arrival(ts, ts.deadline, /*assume_ontime=*/true);
      }
      while (!ts.open && !ts.done && !ts.closing && ts.next_release <= t) {
        open_arrival(ts, t);
        if (seen_activity_ &&
            ts.deadline < active_effective_deadline(ts.ready_time)) {
          must_switch_by_ = std::min(
              must_switch_by_, ts.ready_time + cfg_.dispatch_latency);
        }
      }
    }
  }

  void check_missed_preemption(sim::Nanos t) {
    if (t <= must_switch_by_) return;
    must_switch_by_ = kNever;
    for (const TaskState& ts : tasks_) {
      if (ts.task.thread_id != active_id_ && claims_cpu(ts)) {
        diverge(t, "thread " + std::to_string(ts.task.thread_id) +
                       " has an open arrival (deadline " +
                       std::to_string(ts.deadline) +
                       ") unserved past the dispatch-latency bound");
        return;
      }
    }
  }

  /// Walk reference time up to `t`, charging run time and processing the
  /// release grid at every breakpoint.
  void advance_to(sim::Nanos t) {
    while (true) {
      process_releases(now_);
      check_missed_preemption(now_);
      if (now_ >= t) break;

      sim::Nanos bp = t;
      for (const TaskState& ts : tasks_) {
        if (!ts.open && !ts.done && ts.next_release > now_ &&
            ts.next_release < bp) {
          bp = ts.next_release;
        }
      }
      TaskState* at = active_id_ != 0 ? find(active_id_) : nullptr;
      const bool charging = at != nullptr && irq_depth_ == 0;
      if (charging && at->open) {
        const sim::Nanos fin = now_ + at->remaining;
        if (fin > now_ && fin < bp) bp = fin;
      }
      if (must_switch_by_ > now_ && must_switch_by_ < bp) bp = must_switch_by_ + 1;
      if (bp > t) bp = t;

      if (charging) {
        const sim::Nanos span = bp - now_;
        if (at->open) {
          at->remaining -= span;
          at->stats.charged_ns += span;
          if (at->remaining <= 0) close_arrival(*at, bp, false);
        } else if (at->stats.arrivals > 0 && !at->done) {
          // Running between arrivals is an overrun; running before the
          // first release (pre-admission aperiodic phase) or after a
          // sporadic completed (its aperiodic tail) is legitimate.
          tail_run_ += span;
          if (tail_run_ > cfg_.overrun_tolerance && !tail_flagged_) {
            tail_flagged_ = true;
            diverge(bp, "thread " + std::to_string(active_id_) +
                            " ran " + std::to_string(tail_run_) +
                            "ns past its exhausted budget");
          }
        }
      }
      now_ = bp;
    }
  }

  void on_active(std::uint32_t id, sim::Nanos t) {
    seen_activity_ = true;
    active_id_ = id;
    tail_run_ = 0;
    tail_flagged_ = false;
    TaskState* ts = find(id);
    const sim::Nanos own =
        ts != nullptr ? effective_deadline(*ts, t) : kNever;
    must_switch_by_ = kNever;
    for (const TaskState& other : tasks_) {
      if (other.task.thread_id == id || !claims_cpu(other)) continue;
      if (other.deadline < own) {
        if (t - other.ready_time > cfg_.dispatch_grace) {
          diverge(t, "thread " + std::to_string(id) + " dispatched (deadline " +
                         (own == kNever ? std::string("none")
                                        : std::to_string(own)) +
                         ") while thread " +
                         std::to_string(other.task.thread_id) +
                         " had an earlier open deadline " +
                         std::to_string(other.deadline));
        } else {
          // Released between the pass decision and the switch; it must
          // still be served promptly.
          must_switch_by_ = std::min(
              must_switch_by_, other.ready_time + cfg_.dispatch_latency);
        }
      }
    }
  }

  void on_inactive(std::uint32_t id, sim::Nanos t) {
    seen_activity_ = true;
    if (active_id_ == id) active_id_ = 0;
    tail_run_ = 0;
    tail_flagged_ = false;
    for (const TaskState& ts : tasks_) {
      if (claims_cpu(ts)) {
        must_switch_by_ =
            std::min(must_switch_by_, t + cfg_.dispatch_latency);
        return;
      }
    }
  }

  ReplayConfig cfg_;
  std::vector<TaskState> tasks_;
  std::vector<Divergence> divergences_;
  sim::Nanos now_ = 0;
  std::uint32_t active_id_ = 0;  // 0 = none (thread ids start at 1)
  int irq_depth_ = 0;
  bool seen_activity_ = false;
  sim::Nanos must_switch_by_ = kNever;
  sim::Nanos tail_run_ = 0;
  bool tail_flagged_ = false;
};

}  // namespace

ReplayConfig replay_config_for(const hw::MachineSpec& spec) {
  ReplayConfig c;
  c.slop = spec.timer.apic_tick_ns + 1;
  const auto& cost = spec.cost;
  // Two jitter-inflated handler path lengths: IRQ dispatch, a pass over a
  // moderately full queue, the switch, and the fixed tail.
  const sim::Nanos handler = spec.freq.cycles_to_ns_ceil(
      2 * (cost.irq_dispatch + cost.sched_pass_base +
           64 * cost.sched_pass_per_thread + cost.context_switch +
           cost.sched_other));
  c.dispatch_grace = handler + c.slop + sim::micros(2);
  c.dispatch_latency = 2 * handler + c.slop + sim::micros(20);
  c.budget_tolerance = handler + sim::micros(2);
  c.overrun_tolerance = handler + 2 * c.slop + sim::micros(5);
  if (spec.smi.enabled) {
    c.dispatch_grace += spec.smi.max_duration_ns;
    c.dispatch_latency += 2 * spec.smi.max_duration_ns;
    c.overrun_tolerance += 2 * spec.smi.max_duration_ns;
  }
  return c;
}

const ReplayTaskStats* ReplayResult::find(std::uint32_t thread_id) const {
  for (const ReplayTaskStats& t : tasks) {
    if (t.thread_id == thread_id) return &t;
  }
  return nullptr;
}

ReplayResult replay_edf(const sim::Trace& trace, std::uint32_t cpu,
                        const std::vector<ReplayTask>& tasks,
                        const ReplayConfig& cfg, sim::Nanos end_time) {
  Replayer r(tasks, cfg);
  return r.run(trace, cpu, end_time);
}

void verify_stats(ReplayResult& result, std::uint32_t thread_id,
                  std::uint64_t observed_arrivals,
                  std::uint64_t observed_completions,
                  std::uint64_t observed_misses, std::uint64_t tolerance) {
  const ReplayTaskStats* ref = result.find(thread_id);
  if (ref == nullptr) {
    result.divergences.push_back(
        Divergence{0, "thread " + std::to_string(thread_id) +
                          " was not part of the replay"});
    return;
  }
  auto gap = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
  };
  auto check = [&](const char* what, std::uint64_t refv, std::uint64_t obs) {
    if (gap(refv, obs) > tolerance) {
      result.divergences.push_back(Divergence{
          0, "thread " + std::to_string(thread_id) + " " + what +
                 " disagree: reference " + std::to_string(refv) +
                 " vs scheduler " + std::to_string(obs) +
                 " (tolerance " + std::to_string(tolerance) + ")"});
    }
  };
  check("arrivals", ref->arrivals, observed_arrivals);
  check("completions", ref->completions, observed_completions);
  check("misses", ref->misses, observed_misses);
}

}  // namespace hrt::audit
