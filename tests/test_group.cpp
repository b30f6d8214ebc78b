// Thread groups (section 4): registry, join/leave, collectives (election,
// barrier, reduction, broadcast), the full group admission protocol with
// success/failure paths, all-or-nothing semantics, and phase correction.
#include <gtest/gtest.h>

#include "group/group_admission.hpp"
#include "group/reusable_barrier.hpp"
#include "rt/system.hpp"

namespace hrt {
namespace {

System::Options quiet(std::uint32_t cpus = 6) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;
  return o;
}

// ---------- Registry ----------

TEST(GroupRegistry, CreateFindDestroy) {
  System sys(quiet());
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("workers", 4);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->name(), "workers");
  EXPECT_EQ(sys.groups().find("workers"), g);
  EXPECT_EQ(sys.groups().find("nope"), nullptr);
  EXPECT_EQ(sys.groups().create("workers", 2), nullptr);  // duplicate
  EXPECT_TRUE(sys.groups().destroy("workers"));
  EXPECT_FALSE(sys.groups().destroy("workers"));
  EXPECT_EQ(sys.groups().count(), 0u);
}

TEST(Group, JoinAndLeaveTrackMembers) {
  System sys(quiet());
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("g", 2);
  auto joiner = [g](bool leave) {
    std::vector<nk::Action> acts;
    acts.push_back(g->join_action());
    acts.push_back(nk::Action::compute(sim::micros(50)));
    if (leave) acts.push_back(g->leave_action());
    return std::make_unique<nk::SequenceBehavior>(std::move(acts));
  };
  sys.spawn("a", joiner(false), 1);
  sys.spawn("b", joiner(true), 2);
  sys.run_for(sim::millis(2));
  EXPECT_EQ(g->size(), 1u);
}

// ---------- Collectives ----------

TEST(GroupBarrier, ReleasesAllAtLastArrival) {
  System sys(quiet());
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("g", 3);
  grp::GroupBarrier& bar = g->barrier(0);
  std::vector<sim::Nanos> released;
  for (std::uint32_t r = 0; r < 3; ++r) {
    std::vector<nk::Action> acts;
    // Stagger arrivals.
    acts.push_back(nk::Action::compute(sim::micros(10) * (r + 1)));
    acts.push_back(bar.scan_action());
    acts.push_back(bar.arrive_action());
    acts.push_back(bar.wait_action());
    acts.push_back(bar.depart_action([&released](nk::ThreadCtx& c, int) {
      released.push_back(c.kernel.machine().engine().now());
    }));
    sys.spawn("t" + std::to_string(r),
              std::make_unique<nk::SequenceBehavior>(std::move(acts)), 1 + r);
  }
  sys.run_for(sim::millis(2));
  ASSERT_EQ(released.size(), 3u);
  // All released within a handful of microseconds of each other (the last
  // arrival triggers it; departures serialize).
  EXPECT_LT(released.back() - released.front(), sim::micros(10));
}

TEST(GroupBarrier, DepartureOrdersAreDistinct) {
  System sys(quiet());
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("g", 4);
  grp::GroupBarrier& bar = g->barrier(0);
  std::vector<int> orders;
  for (std::uint32_t r = 0; r < 4; ++r) {
    std::vector<nk::Action> acts;
    acts.push_back(bar.scan_action());
    acts.push_back(bar.arrive_action());
    acts.push_back(bar.wait_action());
    acts.push_back(bar.depart_action(
        [&orders](nk::ThreadCtx&, int i) { orders.push_back(i); }));
    sys.spawn("t" + std::to_string(r),
              std::make_unique<nk::SequenceBehavior>(std::move(acts)), 1 + r);
  }
  sys.run_for(sim::millis(2));
  ASSERT_EQ(orders.size(), 4u);
  std::sort(orders.begin(), orders.end());
  EXPECT_EQ(orders, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Group, ReductionAccumulates) {
  System sys(quiet());
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("g", 3);
  for (std::uint32_t r = 0; r < 3; ++r) {
    sys.spawn("t" + std::to_string(r),
              std::make_unique<nk::SequenceBehavior>(std::vector<nk::Action>{
                  g->reduce_add_action(static_cast<std::int64_t>(r + 1))}),
              1 + r);
  }
  sys.run_for(sim::millis(2));
  EXPECT_EQ(g->reduction_value(), 6);
}

TEST(Group, ElectionPicksExactlyOneLeader) {
  System sys(quiet());
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("g", 4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    sys.spawn("t" + std::to_string(r),
              std::make_unique<nk::SequenceBehavior>(
                  std::vector<nk::Action>{g->elect_action()}),
              1 + r);
  }
  sys.run_for(sim::millis(2));
  EXPECT_NE(g->leader(), nullptr);
}

TEST(Group, BroadcastPublishes) {
  System sys(quiet());
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("g", 1);
  g->publish(1234);
  EXPECT_EQ(g->published(), 1234);
}

// ---------- ReusableBarrier ----------

TEST(ReusableBarrier, ManyRoundsAllRanksTogether) {
  System sys(quiet());
  sys.boot();
  auto bar = std::make_shared<grp::ReusableBarrier>(sys.kernel(), 3);
  std::vector<std::uint64_t> rounds(3, 0);
  for (std::uint32_t r = 0; r < 3; ++r) {
    auto b = std::make_unique<nk::FnBehavior>(
        [bar, r, &rounds, ticket = grp::ReusableBarrier::Ticket{}](
            nk::ThreadCtx&, std::uint64_t step) mutable {
          if (step >= 3 * 20) return nk::Action::exit();
          switch (step % 3) {
            case 0:
              return nk::Action::compute(sim::micros(5) * (r + 1));
            case 1:
              return bar->arrive_action(&ticket);
            default:
              return bar->wait_action(&ticket);
          }
        });
    sys.spawn("t" + std::to_string(r), std::move(b), 1 + r);
  }
  sys.run_for(sim::millis(20));
  EXPECT_EQ(bar->rounds_completed(), 20u);
}

// ---------- Group admission (Algorithm 1) ----------

struct AdmitFixture : ::testing::Test {
  void run_group(System& sys, std::uint32_t n, rt::Constraints c,
                 bool phase_correction = true) {
    group = sys.groups().create("g", n);
    for (std::uint32_t r = 0; r < n; ++r) {
      auto b = std::make_unique<grp::GroupAdmitThenBehavior>(
          *group, c, std::make_unique<nk::BusyLoopBehavior>(sim::micros(20)));
      b->protocol_mutable().set_phase_correction(phase_correction);
      members.push_back(b.get());
      threads.push_back(sys.spawn("m" + std::to_string(r), std::move(b),
                                  1 + r));
    }
  }
  bool all_done() const {
    for (auto* m : members) {
      if (!m->protocol().done()) return false;
    }
    return true;
  }
  grp::ThreadGroup* group = nullptr;
  std::vector<grp::GroupAdmitThenBehavior*> members;
  std::vector<nk::Thread*> threads;
};

TEST_F(AdmitFixture, SuccessfulAdmissionMakesAllPeriodic) {
  System sys(quiet());
  sys.boot();
  run_group(sys, 4,
            rt::Constraints::periodic(sim::millis(3), sim::micros(200),
                                      sim::micros(100)));
  sys.run_for(sim::millis(10));
  ASSERT_TRUE(all_done());
  for (auto* m : members) EXPECT_TRUE(m->protocol().succeeded());
  for (auto* t : threads) {
    EXPECT_EQ(t->constraints.cls, rt::ConstraintClass::kPeriodic);
    EXPECT_GT(t->rt.arrivals, 10u);
    EXPECT_EQ(t->rt.misses, 0u);
  }
  EXPECT_FALSE(group->locked());  // leader unlocked at the end
}

TEST_F(AdmitFixture, ReleaseOrdersAreDistinctAndComplete) {
  System sys(quiet());
  sys.boot();
  run_group(sys, 4,
            rt::Constraints::periodic(sim::millis(3), sim::micros(200),
                                      sim::micros(80)));
  sys.run_for(sim::millis(10));
  ASSERT_TRUE(all_done());
  std::vector<int> orders;
  for (auto* m : members) orders.push_back(m->protocol().release_order());
  std::sort(orders.begin(), orders.end());
  EXPECT_EQ(orders, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(AdmitFixture, PhaseCorrectionAlignsFirstArrivals) {
  // Gammas are staggered by the serialized barrier departure; the corrected
  // phases (phi + (n - i) * delta) compensate, so first arrivals
  // (gamma + phase) align far more tightly than gammas do.
  System sys(quiet());
  sys.boot();
  run_group(sys, 4,
            rt::Constraints::periodic(sim::millis(3), sim::micros(200),
                                      sim::micros(80)),
            /*phase_correction=*/true);
  sys.run_for(sim::millis(10));
  ASSERT_TRUE(all_done());
  sim::Nanos lo = -1;
  sim::Nanos hi = -1;
  sim::Nanos glo = -1;
  sim::Nanos ghi = -1;
  for (auto* t : threads) {
    const sim::Nanos first_arrival = t->rt.gamma + t->constraints.phase;
    if (lo < 0 || first_arrival < lo) lo = first_arrival;
    if (first_arrival > hi) hi = first_arrival;
    if (glo < 0 || t->rt.gamma < glo) glo = t->rt.gamma;
    if (t->rt.gamma > ghi) ghi = t->rt.gamma;
  }
  EXPECT_GT(ghi - glo, 0);                        // staggering existed
  EXPECT_LT(hi - lo, (ghi - glo) / 2 + sim::micros(1));
}

TEST_F(AdmitFixture, InfeasibleGroupFailsForAll) {
  System sys(quiet());
  sys.boot();
  // 95% > 79% available: every local admission rejects.
  run_group(sys, 4,
            rt::Constraints::periodic(sim::millis(3), sim::micros(200),
                                      sim::micros(190)));
  sys.run_for(sim::millis(20));
  ASSERT_TRUE(all_done());
  for (auto* m : members) EXPECT_FALSE(m->protocol().succeeded());
  for (auto* t : threads) {
    // "readmit myself using default constraints": all still aperiodic and
    // eventually exited (the wrapper exits on failure).
    EXPECT_EQ(t->constraints.cls, rt::ConstraintClass::kAperiodic);
  }
  EXPECT_FALSE(group->locked());
}

TEST_F(AdmitFixture, OneOverloadedCpuFailsWholeGroup) {
  System sys(quiet());
  sys.boot();
  // Load CPU 2 to 60%; a 50%-demand group then fails *everywhere*.
  auto hog = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(100), sim::millis(1), sim::micros(600)));
        }
        return nk::Action::compute(sim::micros(50));
      });
  sys.spawn("hog", std::move(hog), 2, 10);
  sys.run_for(sim::millis(1));

  run_group(sys, 4,
            rt::Constraints::periodic(sim::millis(3), sim::millis(1),
                                      sim::micros(500)));
  sys.run_for(sim::millis(30));
  ASSERT_TRUE(all_done());
  for (auto* m : members) EXPECT_FALSE(m->protocol().succeeded());
  // No utilization leaked on the CPUs whose local admission succeeded.
  EXPECT_NEAR(sys.sched(1).admitted_utilization(), 0.0, 1e-9);
  EXPECT_NEAR(sys.sched(3).admitted_utilization(), 0.0, 1e-9);
  EXPECT_NEAR(sys.sched(4).admitted_utilization(), 0.0, 1e-9);
}

TEST_F(AdmitFixture, TimingRecordsMonotoneSteps) {
  System sys(quiet());
  sys.boot();
  run_group(sys, 3,
            rt::Constraints::periodic(sim::millis(3), sim::micros(200),
                                      sim::micros(60)));
  sys.run_for(sim::millis(10));
  ASSERT_TRUE(all_done());
  for (auto* m : members) {
    const auto& t = m->protocol().timing();
    EXPECT_LE(t.start, t.join_done);
    EXPECT_LE(t.join_done, t.election_done);
    EXPECT_LE(t.election_done, t.admission_done);
    EXPECT_LE(t.admission_done, t.barrier_done);
    EXPECT_LE(t.barrier_done, t.total_done);
  }
}

TEST_F(AdmitFixture, MembersOnSameCpuAdmitAgainstSharedBudget) {
  // Two members time-share one CPU, so each spin-phase of the protocol must
  // wait for a round-robin rotation before its partner can progress — the
  // very pathology gang scheduling exists to avoid.  A short quantum keeps
  // the test fast.
  System::Options o = quiet();
  o.sched.aperiodic_quantum = sim::micros(200);
  System sys(std::move(o));
  sys.boot();
  // Two members on one CPU demanding 50% each: joint admission must fail.
  group = sys.groups().create("same-cpu", 2);
  for (int r = 0; r < 2; ++r) {
    auto b = std::make_unique<grp::GroupAdmitThenBehavior>(
        *group,
        rt::Constraints::periodic(sim::millis(3), sim::micros(200),
                                  sim::micros(100)),
        std::make_unique<nk::BusyLoopBehavior>(sim::micros(20)));
    members.push_back(b.get());
    sys.spawn("m" + std::to_string(r), std::move(b), 1);
  }
  sys.run_for(sim::millis(30));
  ASSERT_TRUE(all_done());
  for (auto* m : members) EXPECT_FALSE(m->protocol().succeeded());
}

}  // namespace
}  // namespace hrt
