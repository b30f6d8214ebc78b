// BSP microbenchmark harness tests: work derivation, completion,
// correctness (skew) under all modes, throttling proportionality, barrier
// accounting, and parameter sweeps.
#include <gtest/gtest.h>

#include "bsp/bsp.hpp"

namespace hrt::bsp {
namespace {

System::Options quiet(std::uint32_t cpus = 9) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  return o;
}

BspConfig small_cfg() {
  BspConfig c;
  c.P = 8;
  c.NE = 64;
  c.NC = 4;
  c.NW = 4;
  c.N = 40;
  return c;
}

TEST(BspWork, DerivationMatchesSpec) {
  const auto spec = hw::MachineSpec::phi();
  BspConfig c = small_cfg();
  const BspWork w = derive_work(spec, c);
  // 64 * 4 * 6 cycles = 1536 cycles at 1.3 GHz ~ 1182 ns.
  EXPECT_NEAR(static_cast<double>(w.compute_ns), 1182.0, 2.0);
  // 4 writes * 300 cycles ~ 924 ns.
  EXPECT_NEAR(static_cast<double>(w.write_ns), 924.0, 2.0);
}

TEST(Bsp, AperiodicBarrierRunCompletesWithBoundedSkew) {
  System sys(quiet());
  sys.boot();
  BspConfig c = small_cfg();
  c.mode = Mode::kAperiodic;
  c.barrier = true;
  auto r = run_bsp(sys, c);
  EXPECT_TRUE(r.all_done);
  EXPECT_LE(r.max_write_skew, 1u);
  EXPECT_EQ(r.barrier_rounds, c.N);
  EXPECT_GT(r.makespan, 0);
}

TEST(Bsp, NoWritesConfigSkipsWriteStep) {
  System sys(quiet());
  sys.boot();
  BspConfig c = small_cfg();
  c.NW = 0;
  auto r = run_bsp(sys, c);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(r.max_write_skew, 0u);
}

TEST(Bsp, GroupRtBarrierFreeLockstep) {
  System sys(quiet());
  sys.boot();
  BspConfig c = small_cfg();
  c.mode = Mode::kGroupRt;
  c.barrier = false;
  c.period = sim::micros(200);
  c.slice = sim::micros(160);
  auto r = run_bsp(sys, c);
  EXPECT_TRUE(r.admission_ok);
  EXPECT_TRUE(r.all_done);
  EXPECT_LE(r.max_write_skew, 2u);
  EXPECT_EQ(r.barrier_rounds, 0u);
}

TEST(Bsp, ThrottlingScalesExecutionTime) {
  auto run_at = [](int pct) {
    System sys(quiet());
    sys.boot();
    BspConfig c = small_cfg();
    c.N = 60;
    c.mode = Mode::kGroupRt;
    c.barrier = true;
    c.period = sim::micros(500);
    c.slice = sim::micros(5) * pct;
    auto r = run_bsp(sys, c);
    EXPECT_TRUE(r.all_done);
    return static_cast<double>(r.makespan);
  };
  const double t30 = run_at(30);
  const double t60 = run_at(60);
  EXPECT_NEAR(t30 / t60, 2.0, 0.3);
}

TEST(Bsp, BarrierRemovalNeverBreaksCompletion) {
  System sys(quiet());
  sys.boot();
  BspConfig c = small_cfg();
  c.mode = Mode::kGroupRt;
  c.barrier = false;
  c.period = sim::micros(500);
  c.slice = sim::micros(250);
  auto r = run_bsp(sys, c);
  EXPECT_TRUE(r.all_done);
  EXPECT_GT(r.avg_iterations_per_second, 0.0);
}

TEST(Bsp, RejectedGroupReportsAdmissionFailure) {
  System sys(quiet());
  sys.boot();
  BspConfig c = small_cfg();
  c.mode = Mode::kGroupRt;
  c.period = sim::micros(100);
  c.slice = sim::micros(95);  // > 90% available
  auto r = run_bsp(sys, c);
  EXPECT_FALSE(r.admission_ok);
}

TEST(Bsp, TooManyCpusThrows) {
  System sys(quiet(4));
  sys.boot();
  BspConfig c = small_cfg();  // P=8 > 3 available
  EXPECT_THROW((void)run_bsp(sys, c), std::invalid_argument);
}

TEST(Bsp, RunBeforeBootThrows) {
  System sys(quiet());
  BspConfig c = small_cfg();
  EXPECT_THROW((void)run_bsp(sys, c), std::logic_error);
}

struct SweepParam {
  std::uint64_t ne;
  std::uint64_t nc;
  std::uint64_t nw;
  bool barrier;
};

// Names the ctest cases (e.g. ".../ne16_nc2_nw2_barrier"); without it gtest
// prints the struct's raw bytes, uninitialized padding included.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "ne" << p.ne << "_nc" << p.nc << "_nw" << p.nw
      << (p.barrier ? "_barrier" : "_free");
}

class BspSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BspSweep, AperiodicRunsCompleteCorrectly) {
  const auto p = GetParam();
  System sys(quiet());
  sys.boot();
  BspConfig c = small_cfg();
  c.NE = p.ne;
  c.NC = p.nc;
  c.NW = p.nw;
  c.barrier = p.barrier;
  c.N = 25;
  auto r = run_bsp(sys, c);
  EXPECT_TRUE(r.all_done);
  if (p.barrier) {
    EXPECT_LE(r.max_write_skew, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BspSweep,
    ::testing::Values(SweepParam{16, 2, 2, true}, SweepParam{16, 2, 2, false},
                      SweepParam{256, 8, 8, true},
                      SweepParam{256, 8, 8, false},
                      SweepParam{1024, 16, 0, true},
                      SweepParam{64, 1, 16, true}));

class BspRtSweep : public ::testing::TestWithParam<int> {};

TEST_P(BspRtSweep, GroupRtLockstepHoldsAcrossUtilizations) {
  const int pct = GetParam();
  System sys(quiet());
  sys.boot();
  BspConfig c = small_cfg();
  c.mode = Mode::kGroupRt;
  c.barrier = false;
  c.N = 30;
  c.period = sim::micros(400);
  c.slice = sim::micros(4) * pct;
  auto r = run_bsp(sys, c);
  EXPECT_TRUE(r.admission_ok);
  EXPECT_TRUE(r.all_done);
  EXPECT_LE(r.max_write_skew, 2u);
}

INSTANTIATE_TEST_SUITE_P(Utilization, BspRtSweep,
                         ::testing::Values(20, 40, 60, 80, 90));

}  // namespace
}  // namespace hrt::bsp
