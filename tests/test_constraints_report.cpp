// Unit tests for the Constraints value type and the reporting module.
#include <gtest/gtest.h>

#include <sstream>

#include "rt/constraints.hpp"
#include "rt/report.hpp"
#include "rt/system.hpp"

namespace hrt::rt {
namespace {

// ---------- Constraints ----------

TEST(Constraints, FactoriesSetClass) {
  EXPECT_EQ(Constraints::aperiodic().cls, ConstraintClass::kAperiodic);
  EXPECT_EQ(Constraints::periodic(0, 100, 50).cls,
            ConstraintClass::kPeriodic);
  EXPECT_EQ(Constraints::sporadic(0, 50, 100).cls,
            ConstraintClass::kSporadic);
}

TEST(Constraints, RealtimePredicate) {
  EXPECT_FALSE(Constraints::aperiodic().is_realtime());
  EXPECT_TRUE(Constraints::periodic(0, 100, 50).is_realtime());
  EXPECT_TRUE(Constraints::sporadic(0, 50, 100).is_realtime());
}

TEST(Constraints, UtilizationPerClass) {
  EXPECT_DOUBLE_EQ(Constraints::aperiodic().utilization(), 0.0);
  EXPECT_DOUBLE_EQ(Constraints::periodic(0, 200, 50).utilization(), 0.25);
  // Sporadic density: omega / (deadline - phase) = 60 / (300 - 100).
  EXPECT_DOUBLE_EQ(Constraints::sporadic(100, 60, 300).utilization(), 0.3);
}

TEST(Constraints, WellFormedChecks) {
  EXPECT_TRUE(Constraints::aperiodic().well_formed());
  EXPECT_TRUE(Constraints::periodic(0, 100, 100).well_formed());
  EXPECT_FALSE(Constraints::periodic(0, 100, 101).well_formed());
  EXPECT_FALSE(Constraints::periodic(-1, 100, 50).well_formed());
  EXPECT_FALSE(Constraints::periodic(0, 0, 0).well_formed());
  EXPECT_TRUE(Constraints::sporadic(0, 50, 100).well_formed());
  EXPECT_FALSE(Constraints::sporadic(0, 150, 100).well_formed());  // w > d
  EXPECT_FALSE(Constraints::sporadic(100, 50, 100).well_formed());  // d<=phi
}

TEST(Constraints, EqualityComparesRelevantFields) {
  EXPECT_EQ(Constraints::periodic(1, 2, 3), Constraints::periodic(1, 2, 3));
  EXPECT_FALSE(Constraints::periodic(1, 2, 3) ==
               Constraints::periodic(1, 2, 2));
  EXPECT_FALSE(Constraints::periodic(1, 2, 2) == Constraints::aperiodic());
  EXPECT_EQ(Constraints::aperiodic(5), Constraints::aperiodic(5));
  EXPECT_FALSE(Constraints::aperiodic(5) == Constraints::aperiodic(6));
}

// ---------- Report ----------

TEST(Report, ContainsThreadsAndCpus) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.spec.smi.enabled = false;
  System sys(std::move(o));
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(Constraints::periodic(
              sim::millis(1), sim::micros(200), sim::micros(60)));
        }
        return nk::Action::compute(sim::micros(20));
      });
  sys.spawn("reporter", std::move(b), 1, 10);
  sys.run_for(sim::millis(20));

  std::ostringstream os;
  print_report(sys, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("=== machine: phi"), std::string::npos);
  EXPECT_NE(out.find("reporter"), std::string::npos);
  EXPECT_NE(out.find("periodic"), std::string::npos);
  // Only the busy CPU appears (skip_quiet_cpus).
  EXPECT_EQ(out.find("\n  2 "), std::string::npos);
}

TEST(Report, IdleThreadsHiddenByDefault) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.spec.smi.enabled = false;
  System sys(std::move(o));
  sys.boot();
  sys.run_for(sim::millis(1));
  std::ostringstream hidden;
  print_thread_report(sys, hidden);
  EXPECT_EQ(hidden.str().find("idle0"), std::string::npos);
  std::ostringstream shown;
  ReportOptions opt;
  opt.include_idle_threads = true;
  print_thread_report(sys, shown, opt);
  EXPECT_NE(shown.str().find("idle0"), std::string::npos);
}

}  // namespace
}  // namespace hrt::rt
