// CpuExecutor: executes thread Actions on one simulated CPU and charges
// time for every software path.
//
// The executor is the moral equivalent of the low-level context switch +
// interrupt entry code in Nautilus.  It owns exactly one in-flight timed
// stage at any moment, and the mode names what runs when the stage ends:
//   * kThread:        the current thread's action is progressing (a
//                     completion event is scheduled, except while spinning
//                     on an unset flag); the end finishes the action
//   * kPassHandler:   a timer/kick handler occupies the CPU (irqs masked);
//                     the end applies the pass result held in stage_pass_
//   * kDeviceHandler: a device handler occupies the CPU (irqs masked); the
//                     end runs stage_vector_'s top half
//   * kSchedCall:     the current thread invoked the scheduler (yield /
//                     sleep / exit / change-constraints; irqs masked); the
//                     end runs stage_on_complete_, then applies stage_pass_
//   * kHalted:        the idle thread executed hlt; only an interrupt
//                     resumes us
//
// The stage's operands live in executor-owned slots rather than in a
// captured closure, so beginning a stage allocates nothing.  SMI freezes
// suspend the in-flight stage and resume it shifted by the stolen time,
// which is exactly how missing time manifests to software.
#pragma once

#include <cstdint>
#include <functional>

#include "hw/machine.hpp"
#include "nautilus/scheduler.hpp"
#include "nautilus/thread.hpp"
#include "sim/stats.hpp"

namespace hrt::nk {

class Kernel;
class WaitFlag;

/// Per-CPU scheduler overhead accounting (cycles), regenerating Figure 5.
struct OverheadStats {
  sim::RunningStats irq;    // interrupt dispatch + EOI
  sim::RunningStats pass;   // scheduler pass ("resched")
  sim::RunningStats other;  // accounting + timer reprogram
  sim::RunningStats swtch;  // context switch
  std::uint64_t passes = 0;
  std::uint64_t switches = 0;
};

class CpuExecutor {
 public:
  CpuExecutor(Kernel& kernel, std::uint32_t cpu_id, SchedulerBase* sched);

  CpuExecutor(const CpuExecutor&) = delete;
  CpuExecutor& operator=(const CpuExecutor&) = delete;

  /// Install hardware hooks and start running the idle thread.
  void begin(Thread* idle);

  [[nodiscard]] Thread* current() const { return current_; }
  [[nodiscard]] std::uint32_t cpu_id() const { return cpu_id_; }
  [[nodiscard]] SchedulerBase& scheduler() { return *sched_; }

  /// This CPU's wall-clock estimate (calibrated TSC), the time base of all
  /// scheduling decisions.
  [[nodiscard]] sim::Nanos wall_now() const;

  /// SMI hooks (invoked by the machine through the kernel).
  void on_freeze();
  void on_unfreeze(sim::Nanos duration);

  /// A WaitFlag this thread may be spinning on was set.
  void notify_flag(Thread* t, WaitFlag* f);

  /// Charge the currently running thread for CPU time up to now (called
  /// before reading budget state outside a pass).
  void sync_run_span();

  [[nodiscard]] const OverheadStats& overheads() const { return overheads_; }
  [[nodiscard]] std::uint64_t preemptions() const { return preemptions_; }

  /// Convert a cycle cost to jittered nanoseconds, recording nothing.
  sim::Nanos cost_ns(sim::Cycles cycles);

 private:
  enum class Mode : std::uint8_t {
    kHalted,
    kThread,
    kPassHandler,
    kDeviceHandler,
    kSchedCall,
  };

  void deliver(hw::Vector v);
  void begin_sched_handler(PassReason reason);
  void begin_device_handler(hw::Vector v);
  void finish_device_handler();
  void finish_sched_call();
  void finish_handler(bool via_irq);
  void do_switch(Thread* next);
  void start_action();
  void begin_sched_call();
  void maybe_enable_interrupts();
  void finish_current_action();
  void suspend_current();
  void close_run_span();
  /// Schedule the end of the stage mode_ names; end_stage runs it.
  void set_inflight(sim::Nanos end);
  void end_stage();
  void clear_inflight();

  Kernel& kernel_;
  hw::Machine& machine_;
  sim::Engine& engine_;
  hw::Cpu& cpu_;
  std::uint32_t cpu_id_;
  SchedulerBase* sched_;

  Mode mode_ = Mode::kHalted;
  Thread* current_ = nullptr;

  // In-flight stage bookkeeping.  The operands outlive an SMI freeze, which
  // only reschedules the stage end.
  sim::EventId inflight_;
  sim::Nanos stage_start_ = 0;
  sim::Nanos stage_end_ = 0;
  PassResult stage_pass_;                              // kPassHandler/kSchedCall
  hw::Vector stage_vector_ = 0;                        // kDeviceHandler
  std::function<void(ThreadCtx&)> stage_on_complete_;  // kSchedCall

  // Freeze bookkeeping.
  bool freeze_pending_resume_ = false;
  sim::Nanos freeze_resume_delay_ = 0;

  // CPU-time accounting for the current dispatch.
  sim::Nanos run_span_start_ = 0;
  bool run_span_open_ = false;

  // Livelock guard for zero-width behavior loops.
  sim::Nanos last_complete_time_ = -1;
  std::uint32_t completions_at_time_ = 0;

  OverheadStats overheads_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t pass_seq_ = 0;
};

}  // namespace hrt::nk
