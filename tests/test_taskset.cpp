// Tests for the UUniFast task-set generator and the machine-level property
// that randomly generated admissible task sets run without misses on the
// simulated node.
#include <gtest/gtest.h>

#include <numeric>

#include "rt/system.hpp"
#include "rt/taskset_gen.hpp"

namespace hrt {
namespace {

// ---------- UUniFast ----------

TEST(UUniFast, SumsExactlyToTarget) {
  sim::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    auto u = rt::uunifast(6, 0.75, rng);
    const double sum = std::accumulate(u.begin(), u.end(), 0.0);
    EXPECT_NEAR(sum, 0.75, 1e-12);
    for (double x : u) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 0.75 + 1e-12);
    }
  }
}

TEST(UUniFast, SingleTaskGetsEverything) {
  sim::Rng rng(2);
  auto u = rt::uunifast(1, 0.5, rng);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], 0.5);
}

TEST(UUniFast, EmptyIsEmpty) {
  sim::Rng rng(3);
  EXPECT_TRUE(rt::uunifast(0, 0.5, rng).empty());
}

TEST(UUniFast, MarginalsAreUnbiased) {
  // Each task's expected utilization is total/n.
  sim::Rng rng(4);
  const int trials = 20000;
  std::vector<double> sums(4, 0.0);
  for (int t = 0; t < trials; ++t) {
    auto u = rt::uunifast(4, 0.8, rng);
    for (std::size_t i = 0; i < 4; ++i) sums[i] += u[i];
  }
  for (double s : sums) {
    EXPECT_NEAR(s / trials, 0.2, 0.01);
  }
}

TEST(TaskSetGen, RespectsParameterBounds) {
  sim::Rng rng(5);
  rt::TaskSetParams p;
  p.n = 8;
  p.total_utilization = 0.6;
  p.min_period = sim::micros(100);
  p.max_period = sim::millis(5);
  p.period_granule = sim::micros(100);
  for (int trial = 0; trial < 50; ++trial) {
    auto set = rt::generate_taskset(p, rng);
    ASSERT_EQ(set.size(), 8u);
    double u = 0.0;
    for (const auto& t : set) {
      EXPECT_GE(t.period, p.min_period);
      EXPECT_LE(t.period, p.max_period);
      EXPECT_EQ(t.period % p.period_granule, 0);
      EXPECT_GE(t.slice, sim::micros(1));
      EXPECT_LE(t.slice, t.period);
      u += static_cast<double>(t.slice) / static_cast<double>(t.period);
    }
    // Truncation and the min-slice floor move utilization only slightly.
    EXPECT_LE(u, 0.62);
    EXPECT_GT(u, 0.5);
  }
}

// ---------- Machine-level property: admissible sets never miss ----------

class RandomTaskSetOnMachine : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomTaskSetOnMachine, AdmittedSetsRunWithoutMisses) {
  sim::Rng rng(GetParam());
  rt::TaskSetParams p;
  p.n = 3;
  p.total_utilization = 0.55;
  p.min_period = sim::micros(300);
  p.max_period = sim::millis(3);
  p.period_granule = sim::micros(100);
  const auto set = rt::generate_taskset(p, rng);

  System::Options o;
  o.spec = hw::MachineSpec::phi_small(2);
  o.seed = GetParam();
  System sys(std::move(o));
  sys.boot();
  std::vector<nk::Thread*> threads;
  for (const auto& task : set) {
    auto b = std::make_unique<nk::FnBehavior>(
        [c = rt::Constraints::periodic(sim::millis(1), task.period,
                                       task.slice)](nk::ThreadCtx&,
                                                    std::uint64_t step) {
          if (step == 0) return nk::Action::change_constraints(c);
          return nk::Action::compute(sim::micros(15));
        });
    threads.push_back(sys.spawn("p", std::move(b), 1, 10));
  }
  sys.run_for(sim::millis(300));
  for (nk::Thread* t : threads) {
    ASSERT_TRUE(t->last_admit_ok) << "U=0.55 set must be admissible";
    EXPECT_GT(t->rt.arrivals, 50u);
    EXPECT_EQ(t->rt.misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTaskSetOnMachine,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

}  // namespace
}  // namespace hrt
