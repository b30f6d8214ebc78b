#include "rt/ce_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "nautilus/executor.hpp"

namespace hrt::rt {

CyclicExecutiveScheduler::CyclicExecutiveScheduler(
    nk::Kernel& kernel, std::uint32_t cpu, CyclicExecutive executive,
    std::vector<PeriodicTask> tasks)
    : kernel_(kernel),
      cpu_(cpu),
      executive_(std::move(executive)),
      tasks_(std::move(tasks)),
      slot_threads_(tasks_.size(), nullptr),
      slop_(kernel.machine().spec().timer.apic_tick_ns + 1) {
  if (!executive_.valid_for(tasks_)) {
    throw std::invalid_argument(
        "CyclicExecutiveScheduler: executive does not fit the task set");
  }
  build_segments();
}

void CyclicExecutiveScheduler::build_segments() {
  segments_.clear();
  const sim::Nanos f = executive_.frame;
  for (std::size_t fi = 0; fi < executive_.frames.size(); ++fi) {
    sim::Nanos cursor = static_cast<sim::Nanos>(fi) * f;
    const sim::Nanos frame_end = cursor + f;
    for (const FrameEntry& e : executive_.frames[fi]) {
      segments_.push_back(
          Segment{cursor, e.duration, static_cast<int>(e.task)});
      cursor += e.duration;
    }
    if (cursor < frame_end) {
      segments_.push_back(Segment{cursor, frame_end - cursor, -1});
    }
  }
}

std::size_t CyclicExecutiveScheduler::slots_claimed() const {
  std::size_t n = 0;
  for (auto* t : slot_threads_) {
    if (t != nullptr) ++n;
  }
  return n;
}

void CyclicExecutiveScheduler::maybe_activate(sim::Nanos now) {
  if (epoch_ >= 0 || slots_claimed() != tasks_.size()) return;
  // Start at the next hyperperiod boundary, leaving at least half a frame
  // so the activating pass can finish first.
  const sim::Nanos h = executive_.hyperperiod;
  epoch_ = ((now + executive_.frame / 2 + h - 1) / h) * h;
}

const CyclicExecutiveScheduler::Segment& CyclicExecutiveScheduler::segment_at(
    sim::Nanos now) const {
  const sim::Nanos rel = (now - epoch_) % executive_.hyperperiod;
  // Binary search over the ordered segment list.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), rel,
      [](sim::Nanos v, const Segment& s) { return v < s.start; });
  if (it != segments_.begin()) --it;
  return *it;
}

sim::Nanos CyclicExecutiveScheduler::segment_end_wall(sim::Nanos now) const {
  const sim::Nanos rel = (now - epoch_) % executive_.hyperperiod;
  const Segment& s = segment_at(now);
  return now - rel + s.start + s.duration;
}

nk::PassResult CyclicExecutiveScheduler::pass(nk::PassReason /*reason*/,
                                              sim::Nanos now) {
  // Wake sleepers.
  for (auto it = sleepers_.begin(); it != sleepers_.end();) {
    if ((*it)->wake_time <= now) {
      (*it)->state = nk::Thread::State::kReady;
      aperiodic_.push_back(*it);
      it = sleepers_.erase(it);
    } else {
      ++it;
    }
  }

  nk::Thread* cur = exec_->current();
  const bool cur_runnable =
      cur != nullptr && cur->state == nk::Thread::State::kRunning;

  nk::Thread* next = nullptr;
  if (epoch_ >= 0 && now + slop_ >= epoch_) {
    // The timer's conservative rounding fires up to one tick early; treat a
    // boundary within that slop as crossed, or every pass would dispatch
    // the segment that is just ending.
    const Segment& s = segment_at(now + slop_ < epoch_ ? now : now + slop_);
    if (s.slot >= 0) {
      nk::Thread* owner = slot_threads_[static_cast<std::size_t>(s.slot)];
      if (owner != nullptr && owner->state != nk::Thread::State::kExited &&
          owner->state != nk::Thread::State::kSleeping) {
        next = owner;
      }
    }
  }
  if (next == nullptr) {
    // Idle segment (or inactive executive): run aperiodic work.
    if (cur_runnable && !cur->is_idle &&
        cur->constraints.cls == ConstraintClass::kAperiodic &&
        std::find(slot_threads_.begin(), slot_threads_.end(), cur) ==
            slot_threads_.end()) {
      next = cur;
    } else if (!aperiodic_.empty()) {
      next = aperiodic_.front();
      aperiodic_.pop_front();
    } else {
      next = kernel_.idle_thread(cpu_);
    }
  }
  // Re-queue a displaced aperiodic current.
  if (cur_runnable && cur != next && !cur->is_idle &&
      std::find(slot_threads_.begin(), slot_threads_.end(), cur) ==
          slot_threads_.end()) {
    aperiodic_.push_back(cur);
  }

  nk::PassResult res;
  res.next = next;
  if (next == nullptr || !next->is_realtime()) {
    while (!tasks_queue_.empty()) {
      res.task_ns += std::max<sim::Nanos>(tasks_queue_.front().size, 0);
      res.task_callbacks.push_back(std::move(tasks_queue_.front().fn));
      tasks_queue_.pop_front();
    }
  }
  const auto& cost = kernel_.machine().spec().cost;
  // A table walk is cheaper than a queue-based pass.
  res.pass_cycles = cost.sched_pass_base / 2;
  return res;
}

void CyclicExecutiveScheduler::arm_timer(sim::Nanos now) {
  auto& apic = kernel_.machine().cpu(cpu_).apic();
  sim::Nanos next = -1;
  if (epoch_ >= 0) {
    next = now + slop_ < epoch_ ? epoch_ : segment_end_wall(now + slop_);
  }
  for (nk::Thread* t : sleepers_) {
    if (next < 0 || t->wake_time < next) next = t->wake_time;
  }
  if (next < 0) {
    apic.cancel();
    return;
  }
  sim::Nanos delay = next - now;
  if (delay < 0) delay = 0;
  apic.arm_oneshot(delay);
}

bool CyclicExecutiveScheduler::change_constraints(nk::Thread& t,
                                                  const Constraints& c,
                                                  sim::Nanos now) {
  if (c.cls == ConstraintClass::kAperiodic) {
    // Release any slot the thread held.
    for (auto& s : slot_threads_) {
      if (s == &t) s = nullptr;
    }
    t.constraints = c;
    return true;
  }
  if (c.cls != ConstraintClass::kPeriodic) return false;  // no sporadics
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (slot_threads_[i] == nullptr && tasks_[i].period == c.period &&
        tasks_[i].slice == c.slice) {
      slot_threads_[i] = &t;
      t.constraints = c;
      t.rt = nk::Thread::RtState{};
      t.rt.gamma = now;
      maybe_activate(now);
      return true;
    }
  }
  return false;  // no matching unclaimed slot
}

void CyclicExecutiveScheduler::enqueue(nk::Thread* t) {
  t->state = nk::Thread::State::kReady;
  aperiodic_.push_back(t);
}

void CyclicExecutiveScheduler::on_sleep(nk::Thread& t, sim::Nanos wake) {
  t.wake_time = wake;
  sleepers_.push_back(&t);
}

void CyclicExecutiveScheduler::on_exit(nk::Thread& t) {
  for (auto& s : slot_threads_) {
    if (s == &t) s = nullptr;
  }
  auto it = std::find(aperiodic_.begin(), aperiodic_.end(), &t);
  if (it != aperiodic_.end()) aperiodic_.erase(it);
}

void CyclicExecutiveScheduler::submit_task(nk::Task task) {
  tasks_queue_.push_back(std::move(task));
}

double CyclicExecutiveScheduler::admitted_utilization() const {
  double u = 0.0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (slot_threads_[i] != nullptr) {
      u += static_cast<double>(tasks_[i].slice) /
           static_cast<double>(tasks_[i].period);
    }
  }
  return u;
}

nk::Kernel::SchedulerFactory CyclicExecutiveScheduler::factory(
    CyclicExecutive executive, std::vector<PeriodicTask> tasks) {
  return [executive = std::move(executive),
          tasks = std::move(tasks)](nk::Kernel& k, std::uint32_t cpu) {
    return std::make_unique<CyclicExecutiveScheduler>(k, cpu, executive,
                                                      tasks);
  };
}

}  // namespace hrt::rt
