// Failure injection: SMIs and interrupt storms striking at the worst
// moments (during group admission, during barrier waits, mid-handler), and
// robustness of the protocols under them.
#include <gtest/gtest.h>

#include "audit/replay.hpp"
#include "bsp/bsp.hpp"
#include "group/group_admission.hpp"

namespace hrt {
namespace {

System::Options base(std::uint32_t cpus = 6) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;  // injected explicitly per test
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  return o;
}

TEST(FailureInjection, SmiDuringGroupAdmissionStillSucceeds) {
  System sys(base());
  sys.boot();
  grp::ThreadGroup* group = sys.groups().create("g", 4);
  std::vector<grp::GroupAdmitThenBehavior*> members;
  for (std::uint32_t r = 0; r < 4; ++r) {
    auto b = std::make_unique<grp::GroupAdmitThenBehavior>(
        *group,
        rt::Constraints::periodic(sim::millis(5), sim::micros(500),
                                  sim::micros(200)),
        std::make_unique<nk::BusyLoopBehavior>(sim::micros(20)));
    members.push_back(b.get());
    sys.spawn("m" + std::to_string(r), std::move(b), 1 + r);
  }
  // Hammer the admission window with stop-the-world freezes.
  for (int i = 1; i <= 20; ++i) {
    sys.engine().schedule_at(sys.engine().now() + i * sim::micros(40), [&] {
      sys.machine().smi().force(sim::micros(15));
    });
  }
  sys.run_for(sim::millis(30));
  for (auto* m : members) {
    ASSERT_TRUE(m->protocol().done());
    EXPECT_TRUE(m->protocol().succeeded());
  }
  // The group still runs in lockstep afterwards (phases were corrected
  // against the *observed* gammas).
  sys.run_for(sim::millis(20));
  for (nk::Thread* t : group->members()) {
    EXPECT_GT(t->rt.arrivals, 20u);
  }
}

TEST(FailureInjection, SmiStormDuringBspBarrierRuns) {
  System::Options o = base(10);
  o.spec.smi.enabled = true;
  o.spec.smi.mean_interval_ns = sim::micros(500);
  o.spec.smi.min_duration_ns = sim::micros(10);
  o.spec.smi.mean_duration_ns = sim::micros(15);
  o.spec.smi.max_duration_ns = sim::micros(25);
  System sys(std::move(o));
  sys.boot();
  bsp::BspConfig cfg;
  cfg.P = 8;
  cfg.NE = 128;
  cfg.NC = 4;
  cfg.NW = 8;
  cfg.N = 100;
  cfg.barrier = true;
  cfg.mode = bsp::Mode::kAperiodic;
  auto r = bsp::run_bsp(sys, cfg);
  EXPECT_TRUE(r.all_done);
  EXPECT_LE(r.max_write_skew, 1u);  // barriers still correct under SMIs
  EXPECT_GT(sys.machine().smi().stats().count, 5u);
}

TEST(FailureInjection, DeviceStormDuringAdmissionOnLadenCpu) {
  System sys(base());
  auto& dev = sys.machine().add_device(0x50, hw::Device::Arrival::kPoisson,
                                       sim::micros(15));
  sys.kernel().register_device_handler(0x50, 8000);
  sys.boot();
  sys.kernel().apply_interrupt_partition();
  dev.start();
  // Admission runs on CPU 0 (interrupt-laden) while ~65k irq/s arrive.
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::millis(2), sim::micros(500), sim::micros(150)));
        }
        return nk::Action::compute(sim::micros(30));
      });
  nk::Thread* t = sys.spawn("rt", std::move(b), 0, 10);
  sys.run_for(sim::millis(100));
  ASSERT_TRUE(t->last_admit_ok);
  // Once admitted, TPR steering shields the slices: no misses despite the
  // storm on this very CPU.
  EXPECT_GT(t->rt.arrivals, 150u);
  EXPECT_EQ(t->rt.misses, 0u);
}

TEST(FailureInjection, BackToBackSmisExtendSingleFreeze) {
  System sys(base(2));
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
  sys.run_for(sim::micros(20));
  const sim::Nanos t0 = sys.engine().now();
  // Three overlapping SMIs: 0..50, 30..80, 60..110 us -> one 110 us window.
  sys.machine().smi().force(sim::micros(50));
  sys.engine().schedule_at(t0 + sim::micros(30),
                           [&] { sys.machine().smi().force(sim::micros(50)); });
  sys.engine().schedule_at(t0 + sim::micros(60),
                           [&] { sys.machine().smi().force(sim::micros(50)); });
  sys.run_for(sim::millis(1));
  ASSERT_GT(done_at, 0);
  // Timeline: ~15 us of the 100 us compute ran before t0; the merged
  // freeze spans [t0, t0+110]; the remaining ~85 us complete after it.
  EXPECT_GE(done_at, t0 + sim::micros(110 + 75));
  EXPECT_LT(done_at, t0 + sim::micros(110 + 100));
}

TEST(FailureInjection, WorstCaseSmiAtSliceEndCausesBoundedLateness) {
  System sys(base(2));
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::millis(1), sim::micros(100), sim::micros(70)));
        }
        return nk::Action::compute(sim::micros(20));
      });
  nk::Thread* t = sys.spawn("rt", std::move(b), 1, 10);
  sys.run_for(sim::millis(2));
  // Fire an SMI at exactly the point where only ~15 us of slack remain.
  const sim::Nanos arrival_aligned =
      ((sys.engine().now() / sim::micros(100)) + 1) * sim::micros(100);
  sys.engine().schedule_at(arrival_aligned + sim::micros(80), [&] {
    sys.machine().smi().force(sim::micros(40));
  });
  sys.run_for(sim::millis(5));
  // One miss at most, and its lateness is bounded by the SMI length.
  EXPECT_LE(t->rt.misses, 1u);
  if (t->rt.misses == 1) {
    EXPECT_LT(t->rt.miss_ns.max(), sim::micros(45));
  }
}

// ---------- EDF replay oracle under SMI injection ----------
//
// The oracle's tolerances (replay_config_for) include the machine's maximum
// SMI missing-time, so a trace recorded under live firmware theft must still
// replay clean: every dispatch EDF-ordered, every miss accounted for.

std::unique_ptr<nk::FnBehavior> replay_worker(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

void expect_replay_clean(System& sys, const std::vector<nk::Thread*>& threads,
                         std::uint32_t cpu) {
  std::vector<audit::ReplayTask> tasks;
  for (nk::Thread* t : threads) {
    tasks.push_back({t->id, t->constraints, t->rt.gamma});
  }
  const audit::ReplayConfig cfg =
      audit::replay_config_for(sys.machine().spec());
  audit::ReplayResult r = audit::replay_edf(sys.machine().trace(), cpu, tasks,
                                            cfg, sys.engine().now());
  for (nk::Thread* t : threads) {
    const std::uint64_t tol = std::max<std::uint64_t>(3, t->rt.arrivals / 50);
    audit::verify_stats(r, t->id, t->rt.arrivals, t->rt.completions,
                        t->rt.misses, tol);
  }
  for (const auto& d : r.divergences) {
    ADD_FAILURE() << "t=" << d.time << "ns: " << d.detail;
  }
  EXPECT_TRUE(r.ok());
}

TEST(FailureInjection, ReplayOracleValidatesSmiStormTrace) {
  System::Options o = base(2);
  o.spec.smi.enabled = true;
  o.spec.smi.mean_interval_ns = sim::micros(400);
  o.spec.smi.min_duration_ns = sim::micros(10);
  o.spec.smi.mean_duration_ns = sim::micros(20);
  o.spec.smi.max_duration_ns = sim::micros(40);
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  nk::Thread* a =
      sys.spawn("a",
                replay_worker(rt::Constraints::periodic(
                    sim::millis(1), sim::micros(200), sim::micros(40))),
                1);
  nk::Thread* b =
      sys.spawn("b",
                replay_worker(rt::Constraints::periodic(
                    sim::millis(1), sim::micros(500), sim::micros(100))),
                1);
  sys.run_for(sim::millis(50));
  ASSERT_TRUE(a->last_admit_ok);
  ASSERT_TRUE(b->last_admit_ok);
  EXPECT_GT(sys.machine().smi().stats().count, 50u);
  EXPECT_GT(a->rt.arrivals, 200u);
  expect_replay_clean(sys, {a, b}, 1);
}

TEST(FailureInjection, ReplayOracleValidatesBurstSmiTrace) {
  System::Options o = base(2);
  o.spec.smi.enabled = true;
  o.spec.smi.mean_interval_ns = sim::millis(2);
  o.spec.smi.min_duration_ns = sim::micros(10);
  o.spec.smi.mean_duration_ns = sim::micros(15);
  o.spec.smi.max_duration_ns = sim::micros(30);
  o.spec.smi.burst_enabled = true;
  o.spec.smi.storm_mean_interval_ns = sim::micros(120);
  o.spec.smi.mean_quiet_ns = sim::millis(4);
  o.spec.smi.mean_storm_ns = sim::millis(2);
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  nk::Thread* t =
      sys.spawn("rt",
                replay_worker(rt::Constraints::periodic(
                    sim::millis(1), sim::micros(250), sim::micros(60))),
                1);
  sys.run_for(sim::millis(60));
  ASSERT_TRUE(t->last_admit_ok);
  // The Markov modulation actually cycled through storm states.
  EXPECT_GT(sys.machine().smi().stats().storm_transitions, 2u);
  EXPECT_GT(sys.machine().smi().stats().count, 30u);
  EXPECT_GT(t->rt.arrivals, 150u);
  expect_replay_clean(sys, {t}, 1);
}

}  // namespace
}  // namespace hrt
