// CpuExecutor behavior: action execution and preemption accounting, spin
// semantics, atomic non-preemptibility, sleep/yield/exit paths, SMI freeze
// handling, run-span budget charging, device handlers, livelock guard.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "rt/system.hpp"

namespace hrt {
namespace {

System::Options quiet(std::uint32_t cpus = 4) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;
  return o;
}

TEST(Executor, ComputeChargesExactSimulatedTime) {
  System sys(quiet());
  sys.boot();
  sim::Nanos done_at = -1;
  sys.spawn("t",
            std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                nk::Action::compute(sim::micros(100),
                                    [&](nk::ThreadCtx& c) {
                                      done_at =
                                          c.kernel.machine().engine().now();
                                    })}),
            1);
  const sim::Nanos t0 = sys.engine().now();
  sys.run_for(sim::millis(2));
  // Dispatch overhead (kick handler) precedes the compute; bound it.
  EXPECT_GT(done_at, t0 + sim::micros(100));
  EXPECT_LT(done_at, t0 + sim::micros(100) + sim::micros(20));
}

TEST(Executor, ActionsRunInSequenceWithSideEffects) {
  System sys(quiet());
  sys.boot();
  std::vector<int> order;
  sys.spawn("t",
            std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                nk::Action::compute(sim::micros(10),
                                    [&](nk::ThreadCtx&) { order.push_back(1); }),
                nk::Action::compute(0,
                                    [&](nk::ThreadCtx&) { order.push_back(2); }),
                nk::Action::compute(sim::micros(5),
                                    [&](nk::ThreadCtx&) { order.push_back(3); }),
            }),
            1);
  sys.run_for(sim::millis(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Executor, PreemptionPreservesTotalComputeTime) {
  // A long compute interleaved with a periodic RT thread still takes
  // exactly its work time of CPU, spread over more wall time.
  System sys(quiet());
  sys.boot();
  sim::Nanos done_at = -1;
  nk::Thread* bg = sys.spawn(
      "bg",
      std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
          nk::Action::compute(sim::millis(2),
                              [&](nk::ThreadCtx& c) {
                                done_at = c.kernel.machine().engine().now();
                              })}),
      1);
  auto rt_b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(100), sim::micros(100), sim::micros(50)));
        }
        return nk::Action::compute(sim::micros(20));
      });
  // Higher aperiodic priority so the admission request runs promptly
  // instead of waiting out the 10 Hz round-robin quantum.
  sys.spawn("rt", std::move(rt_b), 1, /*priority=*/10);
  sys.run_for(sim::millis(10));
  ASSERT_GT(done_at, 0);
  // The bg thread got ~50% of the CPU: 2 ms of work takes ~4+ ms of wall.
  EXPECT_GT(done_at, sim::millis(3));
  EXPECT_NEAR(static_cast<double>(bg->total_cpu_ns), 2e6, 1e5);
}

TEST(Executor, SpinWaitBurnsCpuUntilFlagSet) {
  System sys(quiet());
  sys.boot();
  nk::WaitFlag flag(sys.kernel());
  sim::Nanos woke_at = -1;
  nk::Thread* spinner = sys.spawn(
      "spin",
      std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
          nk::Action::spin_until(&flag,
                                 [&](nk::ThreadCtx& c) {
                                   woke_at = c.kernel.machine().engine().now();
                                 })}),
      1);
  sys.run_for(sim::millis(1));
  EXPECT_EQ(woke_at, -1);
  EXPECT_EQ(spinner->state, nk::Thread::State::kRunning);  // spinning = on cpu
  const sim::Nanos set_time = sys.engine().now();
  flag.set();
  sys.run_for(sim::millis(1));
  ASSERT_GT(woke_at, 0);
  // Observed after the spin-notice latency, promptly.
  EXPECT_LT(woke_at - set_time, sim::micros(1));
  // Spinning charged as CPU time.
  EXPECT_GT(spinner->total_cpu_ns, sim::micros(900));
}

TEST(Executor, FlagSetBeforeSpinCompletesImmediately) {
  System sys(quiet());
  sys.boot();
  nk::WaitFlag flag(sys.kernel());
  flag.set();
  bool done = false;
  sys.spawn("spin",
            std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                nk::Action::spin_until(
                    &flag, [&](nk::ThreadCtx&) { done = true; })}),
            1);
  sys.run_for(sim::millis(1));
  EXPECT_TRUE(done);
}

TEST(Executor, DescheduledSpinnerObservesFlagOnRedispatch) {
  // Spinner on CPU 1 shares it with an RT thread; the flag is set while the
  // spinner is descheduled (RT thread running); it completes after being
  // re-dispatched.
  System sys(quiet());
  sys.boot();
  nk::WaitFlag flag(sys.kernel());
  bool done = false;
  sys.spawn("spin",
            std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                nk::Action::spin_until(
                    &flag, [&](nk::ThreadCtx&) { done = true; })}),
            1);
  auto rt_b = std::make_unique<nk::FnBehavior>(
      [&flag](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(200), sim::micros(100), sim::micros(60)));
        }
        if (step == 5) {
          // Set the flag from within the RT thread's slice, while the
          // spinner is certainly descheduled.
          return nk::Action::compute(sim::micros(10),
                                     [&flag](nk::ThreadCtx&) { flag.set(); });
        }
        return nk::Action::compute(sim::micros(10));
      });
  sys.spawn("rt", std::move(rt_b), 1, /*priority=*/10);
  sys.run_for(sim::millis(5));
  EXPECT_TRUE(done);
}

TEST(Executor, AtomicActionIsNotPreempted) {
  // An atomic op spanning a timer-interrupt instant delays the interrupt
  // rather than being split.
  System sys(quiet());
  sys.boot();
  nk::SeqResource res;
  std::vector<sim::Nanos> boundaries;
  auto b = std::make_unique<nk::FnBehavior>(
      [&](nk::ThreadCtx& c, std::uint64_t step) {
        boundaries.push_back(c.kernel.machine().engine().now());
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(100), sim::micros(100), sim::micros(50)));
        }
        return nk::Action::atomic(&res, sim::micros(40));
      });
  sys.spawn("t", std::move(b), 1);
  sys.run_for(sim::millis(2));
  // Each atomic hold completes in one piece: consecutive behavior
  // boundaries within a slice are exactly one hold apart (with jitter), and
  // none is split by the slice-exhaustion interrupt.
  ASSERT_GT(boundaries.size(), 4u);
  EXPECT_GT(res.ops, 3u);
}

TEST(Executor, SleepBlocksAndWakes) {
  System sys(quiet());
  sys.boot();
  sim::Nanos woke = -1;
  sim::Nanos slept = -1;
  auto b = std::make_unique<nk::FnBehavior>(
      [&](nk::ThreadCtx& c, std::uint64_t step) {
        if (step == 0) {
          slept = c.kernel.machine().engine().now();
          return nk::Action::sleep(sim::micros(500));
        }
        woke = c.kernel.machine().engine().now();
        return nk::Action::exit();
      });
  nk::Thread* t = sys.spawn("sleepy", std::move(b), 1);
  sys.run_for(sim::millis(2));
  ASSERT_GE(woke, 0);
  EXPECT_GE(woke - slept, sim::micros(500));
  EXPECT_LT(woke - slept, sim::micros(520));
  EXPECT_EQ(t->state, nk::Thread::State::kPooled);  // exited and reaped
}

TEST(Executor, ExitReapsIntoThreadPool) {
  System sys(quiet());
  sys.boot();
  const std::size_t created_before = sys.kernel().threads_created();
  sys.spawn("a",
            std::make_unique<nk::SequenceBehavior>(
                std::vector<nk::Action>{nk::Action::exit()}),
            1);
  sys.run_for(sim::millis(1));
  EXPECT_EQ(sys.kernel().pool_size(), 1u);
  sys.spawn("b",
            std::make_unique<nk::SequenceBehavior>(
                std::vector<nk::Action>{nk::Action::exit()}),
            1);
  sys.run_for(sim::millis(1));
  // Thread object reused, not newly created.
  EXPECT_EQ(sys.kernel().threads_created(), created_before + 1);
  EXPECT_EQ(sys.kernel().pool_reuses(), 1u);
}

TEST(Executor, YieldRotatesEqualPriorityThreads) {
  System sys(quiet());
  sys.boot();
  std::vector<char> order;
  auto mk = [&order](char who) {
    return std::make_unique<nk::FnBehavior>(
        [&order, who](nk::ThreadCtx&, std::uint64_t step) {
          if (step >= 6) return nk::Action::exit();
          return nk::Action::compute(
              sim::micros(10),
              [&order, who](nk::ThreadCtx&) { order.push_back(who); });
        });
  };
  // FnBehavior computes then yields via a zero-cost action: interleave by
  // yielding explicitly.
  auto mk_yield = [&order](char who) {
    return std::make_unique<nk::FnBehavior>(
        [&order, who](nk::ThreadCtx&, std::uint64_t step) {
          if (step >= 12) return nk::Action::exit();
          if (step % 2 == 0) {
            return nk::Action::compute(
                sim::micros(10),
                [&order, who](nk::ThreadCtx&) { order.push_back(who); });
          }
          return nk::Action::yield();
        });
  };
  sys.spawn("a", mk_yield('a'), 1);
  sys.spawn("b", mk_yield('b'), 1);
  (void)mk;
  sys.run_for(sim::millis(2));
  // Both made progress interleaved: the sequence alternates.
  ASSERT_GE(order.size(), 8u);
  int alternations = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] != order[i - 1]) ++alternations;
  }
  EXPECT_GE(alternations, static_cast<int>(order.size()) / 2);
}

TEST(Executor, SmiFreezeExtendsComputeWallTime) {
  System sys(quiet());
  sys.boot();
  sim::Nanos done_at = -1;
  sys.spawn("t",
            std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                nk::Action::compute(sim::micros(100),
                                    [&](nk::ThreadCtx& c) {
                                      done_at =
                                          c.kernel.machine().engine().now();
                                    })}),
            1);
  // Let the compute begin, then freeze the world for 50 us mid-flight.
  sys.run_for(sim::micros(30));
  sys.machine().smi().force(sim::micros(50));
  sys.run_for(sim::millis(2));
  ASSERT_GT(done_at, 0);
  EXPECT_GE(done_at, sim::micros(100 + 50));
  EXPECT_LT(done_at, sim::micros(100 + 50 + 30));
}

// The timed stages an SMI can interrupt, beyond a plain compute.
enum class StageKind {
  kSchedCall,      // change-constraints with an on_complete
  kDeviceHandler,  // a device vector's handler
  kSpinNotice,     // a spinner observing an already-set flag
  kAtomic,         // a serialized atomic op
  kInlineTasks,    // a kick pass that runs two sized tasks inline
};

constexpr hw::Vector kTestDeviceVector = 0x40;
constexpr sim::Nanos kTaskSize = sim::micros(3);

struct StageRun {
  sim::Nanos begin = -1;             // stage start (tasks: their submission)
  std::vector<sim::Nanos> resumed;   // each run of the stage's continuation
  std::array<int, 2> task_runs{};    // per inline task
  std::uint64_t tasks_inline = 0;
};

/// Run one `kind` stage on CPU 1 of a quiet machine; when `smi_len` > 0,
/// an SMI of that length lands at `smi_at`.
StageRun run_stage(StageKind kind, sim::Nanos smi_at, sim::Nanos smi_len) {
  System sys(quiet());
  StageRun r;
  sim::Engine& eng = sys.engine();
  const auto resume = [&r, &eng] { r.resumed.push_back(eng.now()); };
  sys.kernel().register_device_handler(kTestDeviceVector, 4000, resume);
  sys.boot();
  if (smi_len > 0) {
    eng.schedule_at(
        smi_at, [&sys, smi_len] { sys.machine().smi().force(smi_len); },
        sim::EventBand::kSmi);
  }
  nk::WaitFlag flag(sys.kernel());
  flag.set();
  nk::SeqResource res;
  // The thread's first action is the stage; it starts the instant next()
  // returns it.
  const auto stage_action = [&]() -> nk::Action {
    r.begin = eng.now();
    const auto fx = [resume](nk::ThreadCtx&) { resume(); };
    if (kind == StageKind::kSchedCall) {
      return nk::Action::change_constraints(
          rt::Constraints::periodic(sim::micros(100), sim::millis(1),
                                    sim::micros(100)),
          fx);
    }
    if (kind == StageKind::kSpinNotice) return nk::Action::spin_until(&flag, fx);
    return nk::Action::atomic(&res, sim::micros(5), fx);
  };
  switch (kind) {
    case StageKind::kSchedCall:
    case StageKind::kSpinNotice:
    case StageKind::kAtomic:
      sys.spawn("stage",
                std::make_unique<nk::FnBehavior>(
                    [&](nk::ThreadCtx&, std::uint64_t step) {
                      if (step == 0) return stage_action();
                      return step < 4 ? nk::Action::compute(sim::micros(10))
                                      : nk::Action::exit();
                    }),
                1);
      break;
    case StageKind::kDeviceHandler:
      // CPU 1 is halted with interrupts on: the vector is taken at once.
      eng.schedule_at(eng.now() + sim::micros(10), [&] {
        r.begin = eng.now();
        sys.machine().cpu(1).raise(kTestDeviceVector);
      });
      break;
    case StageKind::kInlineTasks:
      // The kick pass on idle CPU 1 runs both tasks inside its handler
      // span, which the kick's IPI latency (well under 2 * kTaskSize)
      // separates from the submission.
      r.begin = eng.now();
      for (std::size_t i = 0; i < r.task_runs.size(); ++i) {
        sys.kernel().submit_task(1, nk::Task{[&r, resume, i] {
                                               ++r.task_runs[i];
                                               resume();
                                             },
                                             kTaskSize});
      }
      break;
  }
  sys.run_for(sim::millis(2));
  r.tasks_inline = sys.sched(1).stats().tasks_inline;
  return r;
}

TEST(Executor, SmiDuringHandlerShiftsHandlerEnd) {
  {
    System sys(quiet());
    sys.boot();
    // Schedule an SMI to land inside the thread-creation kick handler.
    bool ran = false;
    sys.engine().schedule_at(sys.engine().now() + 1000, [&] {
      sys.machine().smi().force(sim::micros(20));
    });
    sys.spawn("t",
              std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                  nk::Action::compute(sim::micros(1),
                                      [&](nk::ThreadCtx&) { ran = true; })}),
              1);
    sys.run_for(sim::millis(1));
    EXPECT_TRUE(ran);
  }
  // Every other stage kind: an SMI that lands mid-stage resumes the same
  // continuation, exactly once, shifted by exactly the frozen time.
  constexpr sim::Nanos kFreeze = sim::micros(20);
  for (const StageKind kind :
       {StageKind::kSchedCall, StageKind::kDeviceHandler,
        StageKind::kSpinNotice, StageKind::kAtomic,
        StageKind::kInlineTasks}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const StageRun base = run_stage(kind, 0, 0);
    ASSERT_GE(base.begin, 0);
    ASSERT_FALSE(base.resumed.empty());
    ASSERT_GT(base.resumed.front(), base.begin);
    const StageRun frozen =
        run_stage(kind, (base.begin + base.resumed.front()) / 2, kFreeze);
    EXPECT_EQ(frozen.begin, base.begin);
    ASSERT_EQ(frozen.resumed.size(), base.resumed.size());
    for (std::size_t i = 0; i < base.resumed.size(); ++i) {
      EXPECT_EQ(frozen.resumed[i], base.resumed[i] + kFreeze);
    }
    EXPECT_EQ(frozen.task_runs, base.task_runs);
    EXPECT_EQ(frozen.tasks_inline, base.tasks_inline);
  }
}

TEST(Executor, InlineSizedTasksRunOnceAtHandlerEnd) {
  // A pass that inlines sized tasks charges them to its handler span and
  // runs each callback exactly once, together, when that span ends.
  const StageRun r = run_stage(StageKind::kInlineTasks, 0, 0);
  EXPECT_EQ(r.tasks_inline, 2u);
  EXPECT_EQ(r.task_runs, (std::array<int, 2>{1, 1}));
  ASSERT_EQ(r.resumed.size(), 2u);
  EXPECT_EQ(r.resumed[0], r.resumed[1]);
  EXPECT_GE(r.resumed[0] - r.begin, 2 * kTaskSize);
}

TEST(Executor, BudgetChargedIncludesStolenTime) {
  // Section 3.6: software cannot distinguish missing time from execution,
  // so SMI-stolen time is charged against a thread's slice.
  System sys(quiet());
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(100), sim::millis(1), sim::micros(500)));
        }
        return nk::Action::compute(sim::micros(100));
      });
  nk::Thread* t = sys.spawn("rt", std::move(b), 1);
  sys.run_for(sim::millis(1));  // now mid-first-slice
  const sim::Nanos cpu_before = t->total_cpu_ns;
  sys.machine().smi().force(sim::micros(60));
  sys.run_for(sim::millis(20));
  EXPECT_GT(t->total_cpu_ns, cpu_before);
  // The thread still completes arrivals; it just observed less real work.
  EXPECT_GT(t->rt.completions, 10u);
}

TEST(Executor, DeviceHandlerRunsCallbackAndResumesThread) {
  System sys(quiet());
  int irqs = 0;
  sys.kernel().register_device_handler(0x40, 4000, [&] { ++irqs; });
  auto& dev = sys.machine().add_device(0x40, hw::Device::Arrival::kPeriodic,
                                       sim::micros(100));
  sys.boot();
  sys.kernel().apply_interrupt_partition();
  dev.start();
  sim::Nanos done_at = -1;
  sys.spawn("t",
            std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                nk::Action::compute(sim::millis(1),
                                    [&](nk::ThreadCtx& c) {
                                      done_at =
                                          c.kernel.machine().engine().now();
                                    })}),
            0);  // on the interrupt-laden CPU
  sys.run_for(sim::millis(5));
  EXPECT_GT(irqs, 30);
  ASSERT_GT(done_at, 0);
  // The compute finished but was delayed by handler time.
  EXPECT_GT(done_at, sim::millis(1));
}

TEST(Executor, ZeroWidthActionLoopDetected) {
  System sys(quiet());
  sys.boot();
  // A behavior that livelocks: infinite zero-cost computes.
  sys.spawn("bad",
            std::make_unique<nk::FnBehavior>(
                [](nk::ThreadCtx&, std::uint64_t) {
                  return nk::Action::compute(0);
                }),
            1);
  EXPECT_THROW(sys.run_for(sim::millis(1)), std::logic_error);
}

TEST(Executor, OverheadStatsAccumulate) {
  System sys(quiet());
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(100), sim::micros(100), sim::micros(50)));
        }
        return nk::Action::compute(sim::micros(25));
      });
  sys.spawn("rt", std::move(b), 1);
  sys.run_for(sim::millis(10));
  const auto& oh = sys.kernel().executor(1).overheads();
  EXPECT_GT(oh.passes, 150u);
  EXPECT_GT(oh.switches, 150u);
  // Means match the spec's cost model (jitter averages out).
  const auto& cost = sys.machine().spec().cost;
  EXPECT_NEAR(oh.irq.mean(), static_cast<double>(cost.irq_dispatch),
              0.1 * static_cast<double>(cost.irq_dispatch));
  EXPECT_NEAR(oh.pass.mean(), static_cast<double>(cost.sched_pass_base),
              0.15 * static_cast<double>(cost.sched_pass_base));
}

}  // namespace
}  // namespace hrt
