// CyclicExecutiveScheduler: run a statically constructed cyclic executive
// (section 8 future work) as a per-CPU scheduler.
//
// Where the EDF local scheduler decides at run time, this scheduler decides
// nothing: the frame table built by CyclicExecutiveBuilder fixes which task
// runs at every instant of the hyperperiod.  Threads claim task slots by
// requesting periodic constraints that exactly match a slot; once every
// slot is claimed the executive starts at the next hyperperiod boundary of
// the local clock, and the timer simply walks the precomputed segment list.
// Aperiodic threads run in the idle segments.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "nautilus/kernel.hpp"
#include "nautilus/scheduler.hpp"
#include "rt/cyclic_executive.hpp"

namespace hrt::rt {

class CyclicExecutiveScheduler final : public nk::SchedulerBase {
 public:
  CyclicExecutiveScheduler(nk::Kernel& kernel, std::uint32_t cpu,
                           CyclicExecutive executive,
                           std::vector<PeriodicTask> tasks);

  // --- nk::SchedulerBase ---
  void attach(nk::CpuExecutor* exec) override { exec_ = exec; }
  nk::PassResult pass(nk::PassReason reason, sim::Nanos now) override;
  void arm_timer(sim::Nanos now) override;
  bool change_constraints(nk::Thread& t, const Constraints& c,
                          sim::Nanos gamma) override;
  [[nodiscard]] sim::Cycles admission_cost_cycles(
      const nk::Thread&, const Constraints&) const override {
    // Admission is a table lookup: find a matching unclaimed slot.
    return 2000;
  }
  void enqueue(nk::Thread* t) override;
  void on_sleep(nk::Thread& t, sim::Nanos wake_local) override;
  void on_exit(nk::Thread& t) override;
  void submit_task(nk::Task task) override;
  [[nodiscard]] std::size_t stealable_count() const override { return 0; }
  nk::Thread* try_steal() override { return nullptr; }

  // --- introspection ---
  [[nodiscard]] double admitted_utilization() const;
  [[nodiscard]] bool active() const { return epoch_ >= 0; }
  [[nodiscard]] sim::Nanos epoch() const { return epoch_; }
  [[nodiscard]] std::size_t slots_claimed() const;
  [[nodiscard]] const CyclicExecutive& executive() const { return executive_; }

  /// Factory for Kernel::Options: every CPU gets the same executive.
  [[nodiscard]] static nk::Kernel::SchedulerFactory factory(
      CyclicExecutive executive, std::vector<PeriodicTask> tasks);

 private:
  struct Segment {
    sim::Nanos start;     // offset within the hyperperiod
    sim::Nanos duration;
    int slot;             // -1 = idle segment
  };

  void build_segments();
  void maybe_activate(sim::Nanos now);
  [[nodiscard]] const Segment& segment_at(sim::Nanos now) const;
  [[nodiscard]] sim::Nanos segment_end_wall(sim::Nanos now) const;

  nk::Kernel& kernel_;
  std::uint32_t cpu_;
  nk::CpuExecutor* exec_ = nullptr;
  CyclicExecutive executive_;
  std::vector<PeriodicTask> tasks_;
  std::vector<nk::Thread*> slot_threads_;
  std::vector<Segment> segments_;
  sim::Nanos epoch_ = -1;  // wall time the executive started; -1 = inactive
  sim::Nanos slop_;        // timer earliness tolerance (one APIC tick)

  std::deque<nk::Thread*> aperiodic_;
  std::deque<nk::Thread*> sleepers_;
  std::deque<nk::Task> tasks_queue_;
};

}  // namespace hrt::rt
