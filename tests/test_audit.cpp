// Scheduler invariant auditor + EDF replay oracle (audit/), and regression
// tests for the queue-state bugfixes that shipped with it.  Each fixed bug
// can be deliberately re-introduced via Config::TestFaults, and the tests
// prove both the fixed behavior and that the auditor catches the fault.
//
// The suite runs in two modes: the default build configures auditors in
// accumulate mode and inspects counters; an HRT_FORCE_AUDIT build forces
// every auditor into throwing mode, so fault tests tolerate either an
// AuditError or an accumulated violation (run_counting below).
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "audit/replay.hpp"
#include "rt/report.hpp"
#include "rt/system.hpp"

namespace hrt {
namespace {

System::Options audited(std::uint32_t cpus = 4) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;  // keep replay tolerances tight
  o.audit.enabled = true;      // accumulate mode; FORCE builds throw instead
  return o;
}

/// Run `fn`, tolerating the AuditError a throwing-mode (HRT_FORCE_AUDIT)
/// auditor raises, and return how many `inv` violations were seen either
/// way (record() counts before throwing).
std::uint64_t run_counting(System& sys, audit::Invariant inv,
                           const std::function<void()>& fn) {
  try {
    fn();
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), inv) << e.what();
  }
  return sys.auditor().count(inv);
}

std::unique_ptr<nk::FnBehavior> rt_worker(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

// ---------- Auditor unit behavior ----------

TEST(Auditor, AccumulatesOrThrowsPerConfig) {
  audit::Config cfg;
  cfg.enabled = true;
  cfg.throw_on_violation = false;
  audit::Auditor a(cfg);
  if (a.config().throw_on_violation) {
    // HRT_FORCE_AUDIT build: the constructor forces throwing mode.
    EXPECT_THROW(a.record(audit::Invariant::kBudget, 1, 100, "x"),
                 audit::AuditError);
    EXPECT_EQ(a.count(audit::Invariant::kBudget), 1u);
  } else {
    a.record(audit::Invariant::kBudget, 1, 100, "over");
    a.record(audit::Invariant::kQueueState, 2, 200, "queued twice");
    EXPECT_EQ(a.total_violations(), 2u);
    EXPECT_EQ(a.count(audit::Invariant::kBudget), 1u);
    EXPECT_EQ(a.count(audit::Invariant::kQueueState), 1u);
    ASSERT_EQ(a.violations().size(), 2u);
    EXPECT_EQ(a.violations()[0].cpu, 1u);
    EXPECT_EQ(a.violations()[1].detail, "queued twice");
  }
  a.clear();
  EXPECT_EQ(a.total_violations(), 0u);
  EXPECT_TRUE(a.violations().empty());
}

TEST(Auditor, ThrowingModeCarriesInvariant) {
  audit::Config cfg;
  cfg.enabled = true;
  cfg.throw_on_violation = true;
  audit::Auditor a(cfg);
  try {
    a.record(audit::Invariant::kEdfOrder, 3, 42, "wrong order");
    FAIL() << "record() did not throw";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), audit::Invariant::kEdfOrder);
    EXPECT_NE(std::string(e.what()).find("edf-order"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("wrong order"), std::string::npos);
  }
}

TEST(Auditor, RecordingIsBounded) {
  audit::Config cfg;
  cfg.enabled = true;
  cfg.max_recorded = 4;
  audit::Auditor a(cfg);
  if (a.config().throw_on_violation) GTEST_SKIP() << "force-audit build";
  for (int i = 0; i < 100; ++i) {
    a.record(audit::Invariant::kGroup, 0, i, "v");
  }
  EXPECT_EQ(a.total_violations(), 100u);
  EXPECT_EQ(a.violations().size(), 4u);
}

// ---------- Healthy system: audits on, no violations ----------

TEST(AuditClean, RealtimeWorkloadPassesAllInvariants) {
  System sys(audited());
  sys.boot();
  nk::Thread* a = sys.spawn(
      "a", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                               sim::micros(20))), 1);
  nk::Thread* b = sys.spawn(
      "b", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(250),
                                               sim::micros(50))), 1);
  sys.run_for(sim::millis(50));
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
  // The checks actually ran: every pass audits queues + ledgers, every
  // arrival close audits the budget.
  EXPECT_GT(sys.auditor().checks_run(), 1000u);
  EXPECT_GT(a->rt.arrivals, 400u);
  EXPECT_GT(b->rt.arrivals, 150u);

  std::ostringstream os;
  rt::print_audit_report(sys, os);
  EXPECT_NE(os.str().find("audit:"), std::string::npos);
  EXPECT_NE(os.str().find("0 violations"), std::string::npos);
}

TEST(AuditClean, GroupBarrierWorkloadPassesAllInvariants) {
  System sys(audited(6));
  sys.boot();
  grp::ThreadGroup* g = sys.groups().create("g", 3);
  grp::GroupBarrier& bar = g->barrier(0);
  for (std::uint32_t r = 0; r < 3; ++r) {
    std::vector<nk::Action> acts;
    acts.push_back(nk::Action::compute(sim::micros(10) * (r + 1)));
    acts.push_back(bar.scan_action());
    acts.push_back(bar.arrive_action());
    acts.push_back(bar.wait_action());
    acts.push_back(bar.depart_action());
    sys.spawn("t" + std::to_string(r),
              std::make_unique<nk::SequenceBehavior>(std::move(acts)), 1 + r);
  }
  sys.run_for(sim::millis(2));
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
  EXPECT_GT(sys.auditor().checks_run(), 0u);
}

// ---------- Bugfix 1: class change on a sleeping thread ----------

TEST(SleepingChange, AperiodicChangeKeepsThreadSleeping) {
  System sys(audited());
  sys.boot();
  bool woke = false;
  auto b = std::make_unique<nk::FnBehavior>(
      [&woke](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::sleep(sim::millis(5));
        return nk::Action::compute(sim::micros(50),
                                   [&woke](nk::ThreadCtx&) { woke = true; });
      });
  nk::Thread* t = sys.spawn("napper", std::move(b), 1, 50);
  sys.run_for(sim::millis(1));
  ASSERT_EQ(t->state, nk::Thread::State::kSleeping);
  const std::size_t sleepers = sys.sched(1).sleeper_count();
  const sim::Nanos wake_before = t->wake_time;

  // Re-prioritize the sleeper (aperiodic -> aperiodic): it must stay
  // asleep with its wake time intact, not get parked runnable in nonrt_.
  EXPECT_TRUE(sys.sched(1).change_constraints(
      *t, rt::Constraints::aperiodic(10), sys.engine().now()));
  EXPECT_EQ(t->state, nk::Thread::State::kSleeping);
  EXPECT_EQ(sys.sched(1).sleeper_count(), sleepers);
  EXPECT_EQ(t->wake_time, wake_before);
  EXPECT_FALSE(woke);
  EXPECT_EQ(t->constraints.priority, 10u);

  sys.run_for(sim::millis(10));  // past the original wake time
  EXPECT_TRUE(woke);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(SleepingChange, SeededFaultIsCaughtByQueueAudit) {
  System::Options o = audited();
  o.sched.test_faults.sleeping_change_to_nonrt = true;
  System sys(std::move(o));
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::sleep(sim::millis(5));
        return nk::Action::compute(sim::micros(50));
      });
  nk::Thread* t = sys.spawn("napper", std::move(b), 1, 50);
  sys.run_for(sim::millis(1));
  ASSERT_EQ(t->state, nk::Thread::State::kSleeping);

  const std::uint64_t violations = run_counting(
      sys, audit::Invariant::kQueueState, [&] {
        (void)sys.sched(1).change_constraints(
            *t, rt::Constraints::aperiodic(10), sys.engine().now());
        // The faulty path parks the still-sleeping thread in nonrt_; the
        // next state audit flags the state/queue mismatch.
        sys.sched(1).audit_state(sys.engine().now());
      });
  EXPECT_GE(violations, 1u);
}

// ---------- Bugfix 2: sporadic -> aperiodic tail ----------

TEST(SporadicTail, DropsReservationAndRejoinsRoundRobinAtTheBack) {
  System sys(audited());
  sys.boot();
  nk::Thread* t = sys.spawn(
      "sp", rt_worker(rt::Constraints::sporadic(
                sim::millis(1), sim::micros(500), sim::millis(11), 30)), 1);
  sys.run_for(sim::micros(1200));  // mid sporadic service
  ASSERT_EQ(t->constraints.cls, rt::ConstraintClass::kSporadic);
  ASSERT_TRUE(t->rt.arrival_open);
  const std::uint64_t seq_before = t->rr_seq;

  // A (group-admission style) reservation made during the RT phase claims
  // utilization the tail no longer needs.
  ASSERT_TRUE(sys.sched(1).reserve_constraints(
      *t, rt::Constraints::periodic(0, sim::millis(1), sim::micros(100))));
  ASSERT_TRUE(sys.sched(1).has_reservation(*t));

  sys.run_for(sim::millis(10));  // budget delivered; tail is aperiodic now
  ASSERT_EQ(t->constraints.cls, rt::ConstraintClass::kAperiodic);
  EXPECT_EQ(t->constraints.priority, 30u);
  EXPECT_EQ(t->rt.completions, 1u);
  EXPECT_FALSE(sys.sched(1).has_reservation(*t));
  // The tail queues behind aperiodics that were already waiting, instead of
  // jumping ahead on its stale pre-admission sequence number.
  EXPECT_GT(t->rr_seq, seq_before);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(SporadicTail, SeededFaultKeepsStaleReservation) {
  System::Options o = audited();
  o.sched.test_faults.stale_sporadic_tail = true;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* t = sys.spawn(
      "sp", rt_worker(rt::Constraints::sporadic(
                sim::millis(1), sim::micros(500), sim::millis(11), 30)), 1);
  sys.run_for(sim::micros(1200));
  ASSERT_EQ(t->constraints.cls, rt::ConstraintClass::kSporadic);
  const std::uint64_t seq_before = t->rr_seq;
  ASSERT_TRUE(sys.sched(1).reserve_constraints(
      *t, rt::Constraints::periodic(0, sim::millis(1), sim::micros(100))));

  sys.run_for(sim::millis(10));
  ASSERT_EQ(t->constraints.cls, rt::ConstraintClass::kAperiodic);
  // The bug: the dead reservation still pins 10% utilization, and the tail
  // kept its pre-admission round-robin slot.
  EXPECT_TRUE(sys.sched(1).has_reservation(*t));
  EXPECT_EQ(t->rr_seq, seq_before);
}

// ---------- Bugfix 3: thread_count() double-counting the current ----------

TEST(ThreadCount, DoubleCountFaultInflatesPassCost) {
  // Two equal-priority aperiodic hogs force a round-robin rotation every
  // quantum; the rotation re-queues the current thread before pass() charges
  // its cost, which is exactly where the double count fired.  With cost
  // jitter disabled the two runs differ only by the per-thread term.
  auto opts = [](bool fault) {
    System::Options o;
    o.spec = hw::MachineSpec::phi_small(4);
    o.spec.smi.enabled = false;
    o.spec.cost.jitter_rel_std = 0.0;
    o.sched.aperiodic_quantum = sim::micros(200);
    o.sched.test_faults.double_count_current = fault;
    return o;
  };
  auto run = [](System::Options o) {
    System sys(std::move(o));
    sys.boot();
    sys.spawn("a", std::make_unique<nk::BusyLoopBehavior>(sim::millis(2)), 1);
    sys.spawn("b", std::make_unique<nk::BusyLoopBehavior>(sim::millis(2)), 1);
    sys.run_for(sim::millis(20));
    EXPECT_GT(sys.sched(1).stats().rr_rotations, 40u);
    return sys.kernel().executor(1).overheads().pass.mean();
  };
  const double fixed = run(opts(false));
  const double faulty = run(opts(true));
  EXPECT_GT(faulty, fixed);
}

// ---------- Bugfix 4: one-shot re-armed at a stale quantum target ----------

TEST(TimerArm, RotationTargetInThePastIsClamped) {
  // A high-priority hog over a low-priority waiter never rotates, so the
  // quantum expiry point recedes into the past while the hog runs.  The
  // fixed scheduler re-arms one full quantum out; re-arming at the stale
  // target fires a one-shot every APIC tick.
  System::Options o = audited();
  o.sched.aperiodic_quantum = sim::micros(500);
  System sys(std::move(o));
  sys.boot();
  sys.spawn("hog", std::make_unique<nk::BusyLoopBehavior>(sim::millis(2)), 1, 5);
  sys.spawn("low", std::make_unique<nk::BusyLoopBehavior>(sim::millis(2)), 1,
            200);
  sys.run_for(sim::millis(20));
  EXPECT_LT(sys.sched(1).stats().zero_delay_arms, 64u);
  EXPECT_LT(sys.sched(1).stats().timer_passes, 200u);
  EXPECT_EQ(sys.auditor().count(audit::Invariant::kTimerArm), 0u);
}

TEST(TimerArm, SeededStormIsCaughtByTimerAudit) {
  System::Options o = audited();
  o.sched.aperiodic_quantum = sim::micros(500);
  o.sched.test_faults.rearm_past_quantum = true;
  System sys(std::move(o));
  sys.boot();
  sys.spawn("hog", std::make_unique<nk::BusyLoopBehavior>(sim::millis(2)), 1, 5);
  sys.spawn("low", std::make_unique<nk::BusyLoopBehavior>(sim::millis(2)), 1,
            200);
  const std::uint64_t violations = run_counting(
      sys, audit::Invariant::kTimerArm,
      [&] { sys.run_for(sim::millis(20)); });
  EXPECT_GE(violations, 1u);
  EXPECT_GE(sys.sched(1).stats().zero_delay_arms, 64u);
}

// ---------- EDF replay oracle ----------

struct ReplayFixtureResult {
  std::vector<audit::ReplayTask> tasks;
  std::vector<nk::Thread*> threads;
};

void dump_divergences(const audit::ReplayResult& r) {
  for (const auto& d : r.divergences) {
    ADD_FAILURE() << "t=" << d.time << "ns: " << d.detail;
  }
}

TEST(Replay, CleanPeriodicScheduleHasNoDivergences) {
  System sys(audited());
  sys.machine().trace().enable();
  sys.boot();
  nk::Thread* a = sys.spawn(
      "a", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                               sim::micros(20))), 1);
  nk::Thread* b = sys.spawn(
      "b", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(250),
                                               sim::micros(50))), 1);
  sys.run_for(sim::millis(50));

  const std::vector<audit::ReplayTask> tasks = {
      {a->id, a->constraints, a->rt.gamma},
      {b->id, b->constraints, b->rt.gamma},
  };
  const audit::ReplayConfig cfg = audit::replay_config_for(sys.machine().spec());
  audit::ReplayResult r = audit::replay_edf(sys.machine().trace(), 1, tasks,
                                            cfg, sys.engine().now());
  dump_divergences(r);
  EXPECT_TRUE(r.ok());
  ASSERT_NE(r.find(a->id), nullptr);
  EXPECT_GT(r.find(a->id)->arrivals, 400u);
  audit::verify_stats(r, a->id, a->rt.arrivals, a->rt.completions,
                      a->rt.misses, 2);
  audit::verify_stats(r, b->id, b->rt.arrivals, b->rt.completions,
                      b->rt.misses, 2);
  dump_divergences(r);
  EXPECT_TRUE(r.ok());
}

// The bench harness's figure scenario: admission off, one periodic thread
// per cell, including a deliberately infeasible (overloaded) cell.  The
// oracle must agree with the scheduler in both regimes.
TEST(Replay, BenchMissSweepCellsValidate) {
  for (const int pct : {45, 90}) {
    System::Options o = audited();
    o.sched.admission_enabled = false;
    System sys(std::move(o));
    sys.machine().trace().enable();
    sys.boot();
    const sim::Nanos period = sim::micros(50);
    nk::Thread* t = sys.spawn(
        "sweep",
        rt_worker(rt::Constraints::periodic(sim::millis(1), period,
                                            period * pct / 100)),
        1);
    sys.run_for(sim::millis(30));

    const std::vector<audit::ReplayTask> tasks = {
        {t->id, t->constraints, t->rt.gamma}};
    const audit::ReplayConfig cfg =
        audit::replay_config_for(sys.machine().spec());
    audit::ReplayResult r = audit::replay_edf(sys.machine().trace(), 1, tasks,
                                              cfg, sys.engine().now());
    const std::uint64_t tol =
        std::max<std::uint64_t>(3, t->rt.arrivals / 50);
    audit::verify_stats(r, t->id, t->rt.arrivals, t->rt.completions,
                        t->rt.misses, tol);
    dump_divergences(r);
    EXPECT_TRUE(r.ok()) << "slice " << pct << "%";
    EXPECT_GT(t->rt.arrivals, 500u);
    if (pct == 90) {
      // The overloaded cell does miss; the point is the oracle accounts for
      // every miss rather than finding divergences.
      EXPECT_GT(t->rt.misses, 0u);
    }
  }
}

TEST(Replay, DoctoredTraceIsFlagged) {
  System sys(audited());
  sys.machine().trace().enable();
  sys.boot();
  nk::Thread* a = sys.spawn(
      "a", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                               sim::micros(20))), 1);
  nk::Thread* b = sys.spawn(
      "b", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(250),
                                               sim::micros(50))), 1);
  sys.run_for(sim::millis(50));

  // Forge the stream: for a 2 ms window mid-run, swap the two threads'
  // dispatch records, as if the scheduler had served the wrong thread.
  sim::Trace doctored;
  doctored.enable();
  for (const sim::TraceRecord& rec : sys.machine().trace().records()) {
    sim::TraceRecord f = rec;
    if (f.time >= sim::millis(20) && f.time < sim::millis(22) &&
        (f.kind == sim::TraceKind::kThreadActive ||
         f.kind == sim::TraceKind::kThreadInactive)) {
      if (f.value == static_cast<std::int64_t>(a->id)) {
        f.value = b->id;
      } else if (f.value == static_cast<std::int64_t>(b->id)) {
        f.value = a->id;
      }
    }
    doctored.record(f.time, f.cpu, f.kind, f.value);
  }
  const std::vector<audit::ReplayTask> tasks = {
      {a->id, a->constraints, a->rt.gamma},
      {b->id, b->constraints, b->rt.gamma},
  };
  const audit::ReplayConfig cfg = audit::replay_config_for(sys.machine().spec());
  audit::ReplayResult r = audit::replay_edf(doctored, 1, tasks, cfg,
                                            sys.engine().now());
  EXPECT_FALSE(r.ok());
}

TEST(Replay, VerifyStatsFlagsUnaccountedMisses) {
  System sys(audited());
  sys.machine().trace().enable();
  sys.boot();
  nk::Thread* a = sys.spawn(
      "a", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                               sim::micros(20))), 1);
  sys.run_for(sim::millis(20));
  const std::vector<audit::ReplayTask> tasks = {
      {a->id, a->constraints, a->rt.gamma}};
  const audit::ReplayConfig cfg = audit::replay_config_for(sys.machine().spec());
  audit::ReplayResult r = audit::replay_edf(sys.machine().trace(), 1, tasks,
                                            cfg, sys.engine().now());
  ASSERT_TRUE(r.ok());
  // A scheduler that under-reported 50 misses would not match the oracle.
  audit::verify_stats(r, a->id, a->rt.arrivals, a->rt.completions,
                      a->rt.misses + 50, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.divergences.back().detail.find("misses"), std::string::npos);
}

}  // namespace
}  // namespace hrt
