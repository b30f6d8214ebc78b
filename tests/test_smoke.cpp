// End-to-end smoke tests: boot, run threads, basic RT behavior.
#include <gtest/gtest.h>

#include "bsp/bsp.hpp"
#include "rt/system.hpp"

namespace hrt {
namespace {

System::Options small_opts(std::uint32_t cpus = 4, bool smi = false) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = smi;
  return o;
}

TEST(Smoke, BootAndIdle) {
  System sys(small_opts());
  sys.boot();
  sys.run_for(sim::millis(10));
  EXPECT_TRUE(sys.kernel().booted());
  // All CPUs run their idle threads; nothing should have crashed and no
  // runaway event storms should occur while idle.
  EXPECT_LT(sys.engine().events_executed(), 10000u);
}

TEST(Smoke, AperiodicThreadRuns) {
  System sys(small_opts());
  sys.boot();
  bool ran = false;
  sys.spawn("worker",
            std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                nk::Action::compute(sim::micros(500),
                                    [&ran](nk::ThreadCtx&) { ran = true; }),
            }),
            1);
  sys.run_for(sim::millis(5));
  EXPECT_TRUE(ran);
}

TEST(Smoke, PeriodicThreadMeetsFeasibleConstraints) {
  System sys(small_opts());
  sys.boot();
  // 100 us period, 50 us slice -- Figure 4's configuration.
  auto behavior = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::millis(1), sim::micros(100), sim::micros(50)));
        }
        return nk::Action::compute(sim::micros(20));
      });
  nk::Thread* t = sys.spawn("rt", std::move(behavior), 1);
  sys.run_for(sim::millis(50));
  EXPECT_TRUE(t->last_admit_ok);
  // ~490 arrivals expected in ~49 ms of admitted time.
  EXPECT_GT(t->rt.arrivals, 400u);
  EXPECT_EQ(t->rt.misses, 0u);
}

TEST(Smoke, InfeasibleConstraintsRejectedByAdmission) {
  System sys(small_opts());
  sys.boot();
  nk::Thread* t = sys.spawn(
      "greedy",
      std::make_unique<nk::FnBehavior>(
          [](nk::ThreadCtx&, std::uint64_t step) {
            if (step == 0) {
              // 95% utilization > 79% available after reservations.
              return nk::Action::change_constraints(rt::Constraints::periodic(
                  sim::millis(1), sim::micros(100), sim::micros(95)));
            }
            return nk::Action::exit();
          }),
      1);
  sys.run_for(sim::millis(5));
  EXPECT_FALSE(t->last_admit_ok);
  EXPECT_EQ(t->constraints.cls, rt::ConstraintClass::kAperiodic);
}

TEST(Smoke, BspAperiodicWithBarrierCompletes) {
  System sys(small_opts(5));
  sys.boot();
  bsp::BspConfig cfg;
  cfg.P = 4;
  cfg.NE = 64;
  cfg.NC = 4;
  cfg.NW = 4;
  cfg.N = 50;
  cfg.barrier = true;
  cfg.mode = bsp::Mode::kAperiodic;
  auto res = bsp::run_bsp(sys, cfg);
  EXPECT_TRUE(res.all_done);
  EXPECT_LE(res.max_write_skew, 1u);
  EXPECT_EQ(res.barrier_rounds, 50u);
}

TEST(Smoke, BspGroupRtWithoutBarrierStaysInLockstep) {
  System sys(small_opts(5));
  sys.boot();
  bsp::BspConfig cfg;
  cfg.P = 4;
  cfg.NE = 64;
  cfg.NC = 4;
  cfg.NW = 4;
  cfg.N = 50;
  cfg.barrier = false;
  cfg.mode = bsp::Mode::kGroupRt;
  cfg.period = sim::micros(100);
  cfg.slice = sim::micros(75);
  auto res = bsp::run_bsp(sys, cfg);
  EXPECT_TRUE(res.admission_ok);
  EXPECT_TRUE(res.all_done);
  // Lockstep via time alone: skew bounded by a couple of iterations.
  EXPECT_LE(res.max_write_skew, 2u);
}

}  // namespace
}  // namespace hrt
