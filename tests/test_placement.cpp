// Global placement subsystem (src/global/, docs/GLOBAL.md): policy packing
// against real per-CPU admission, semi-partitioned overflow, the utilization
// ledger and its audit invariant, job-boundary RT migration, rebalancing,
// and the auto-placement spawn API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <set>

#include "audit/replay.hpp"
#include "global/global_scheduler.hpp"
#include "group/group_admission.hpp"
#include "rt/system.hpp"
#include "rt/taskset_gen.hpp"
#include "sim/rng.hpp"

namespace hrt {
namespace {

System::Options placed(std::uint32_t cpus = 4, std::uint32_t laden = 1) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;
  o.audit.enabled = true;  // accumulate mode; FORCE builds throw instead
  o.interrupt_laden_cpus = laden;
  return o;
}

/// Run `fn`, tolerating the AuditError a throwing-mode (HRT_FORCE_AUDIT)
/// auditor raises, and return how many `inv` violations were seen.
std::uint64_t run_counting(System& sys, audit::Invariant inv,
                           const std::function<void()>& fn) {
  try {
    fn();
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), inv) << e.what();
  }
  return sys.auditor().count(inv);
}

/// Self-admitting RT worker for pinned spawns (the spawn_auto wrapper does
/// the admission itself, so auto-spawned inners just compute).
std::unique_ptr<nk::FnBehavior> rt_worker(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

/// Inner behavior that computes `jobs` chunks then exits.
std::unique_ptr<nk::FnBehavior> finite_worker(std::uint64_t jobs,
                                              sim::Nanos chunk) {
  return std::make_unique<nk::FnBehavior>(
      [jobs, chunk](nk::ThreadCtx&, std::uint64_t step) {
        if (step < jobs) return nk::Action::compute(chunk);
        return nk::Action::exit();
      });
}

std::unique_ptr<nk::Behavior> busy(sim::Nanos chunk = sim::micros(100)) {
  return std::make_unique<nk::BusyLoopBehavior>(chunk);
}

bool admitted_rt(const nk::Thread* t) {
  return t->is_realtime() && t->rt.arrivals > 0;
}

// ---------- satellite: spawn rejects out-of-range CPUs ----------

TEST(SystemSpawn, RejectsOutOfRangeCpu) {
  System sys(placed(2));
  sys.boot();
  EXPECT_THROW(sys.spawn("oob", busy(), 2), std::out_of_range);
  EXPECT_THROW(sys.spawn("oob", busy(), 99), std::out_of_range);
  nk::Thread* ok = sys.spawn("ok", busy(), 1);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->cpu, 1u);
}

// ---------- malformed placement settings ----------

TEST(PlacementConfig, RejectsNanOrNegativeRebalanceThreshold) {
  for (const double threshold :
       {-0.01, -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    System::Options o = placed(2);
    o.placement_config.rebalance_threshold = threshold;
    EXPECT_THROW(System sys(o), std::invalid_argument) << threshold;
  }
  for (const double threshold :
       {0.0, 0.8, std::numeric_limits<double>::infinity()}) {
    System::Options o = placed(2);
    o.placement_config.rebalance_threshold = threshold;
    EXPECT_NO_THROW(System sys(o)) << threshold;
  }
}

TEST(PlacementConfig, RejectsNegativeRebalanceTaskSize) {
  System::Options o = placed(2);
  o.placement_config.rebalance_task_size = -1;
  EXPECT_THROW(System sys(o), std::invalid_argument);
  o.placement_config.rebalance_task_size = 0;
  EXPECT_NO_THROW(System sys(o));
}

TEST(PlacementConfig, RejectsInterruptLadenCpusPastTheMachine) {
  // Boot routes device vector k to CPU k % laden: a partition wider than
  // the machine would send vectors to CPUs it does not have.
  for (const std::uint32_t laden : {5u, 8u, 0xFFFFFFFFu}) {
    EXPECT_THROW(System sys(placed(4, laden)), std::invalid_argument)
        << laden;
  }
  // Up to the CPU count every vector lands inside the partition; 0 keeps
  // them all on CPU 0.
  for (const std::uint32_t laden : {0u, 1u, 3u, 4u}) {
    System sys(placed(4, laden));
    for (hw::Vector v = 0x40; v < 0x48; ++v) {
      sys.kernel().register_device_handler(v, 1000);
    }
    sys.boot();
    for (hw::Vector v = 0x40; v < 0x48; ++v) {
      EXPECT_EQ(sys.machine().ioapic().destination(v),
                (v - 0x40u) % std::max(laden, 1u))
          << "laden " << laden << " vector " << int{v};
    }
  }
}

// ---------- utilization ledger ----------

TEST(Ledger, TracksAdmitAndExit) {
  System sys(placed(2, 0));
  sys.boot();
  auto& ledger = sys.placement().ledger();
  for (std::uint32_t cpu = 0; cpu < 2; ++cpu) {
    EXPECT_EQ(ledger.committed_raw(cpu), 0u) << "cpu " << cpu;
  }

  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  nk::Thread* t =
      sys.spawn_auto("worker", finite_worker(6, sim::micros(250)), c);
  sys.run_for(sim::millis(4));
  EXPECT_TRUE(admitted_rt(t));
  EXPECT_NEAR(ledger.committed(t->cpu), 0.3, 1e-9);

  sys.run_for(sim::millis(30));  // worker exits (and is reaped), util returns
  EXPECT_TRUE(t->state == nk::Thread::State::kExited ||
              t->state == nk::Thread::State::kPooled);
  for (std::uint32_t cpu = 0; cpu < 2; ++cpu) {
    EXPECT_NEAR(ledger.committed(cpu), 0.0, 1e-9) << "cpu " << cpu;
  }
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Ledger, AuditCatchesDroppedRelease) {
  System::Options o = placed(2, 0);
  o.sched.test_faults.drop_ledger_release = true;
  System sys(o);
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  const std::uint64_t n =
      run_counting(sys, audit::Invariant::kUtilization, [&] {
        sys.spawn_auto("leaky", finite_worker(4, sim::micros(250)), c);
        sys.run_for(sim::millis(30));
      });
  EXPECT_GE(n, 1u);
}

// ---------- policy packing vs real per-CPU admission ----------

TEST(Placement, PoliciesPassPerCpuAdmission) {
  constexpr std::uint32_t kCpus = 4;
  constexpr double kCapacity = 0.79;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::Rng rng(seed);
    rt::TaskSetParams params;
    params.n = 10;
    params.total_utilization = 2.4;
    params.min_slice = sim::micros(10);
    const auto tasks = rt::generate_taskset(params, rng);
    for (global::Policy p :
         {global::Policy::kFirstFit, global::Policy::kBestFit,
          global::Policy::kWorstFit, global::Policy::kTopology}) {
      const auto r = global::pack_decreasing(tasks, kCpus, kCapacity, p,
                                             /*interrupt_laden_cpus=*/1);
      std::vector<std::vector<rt::PeriodicTask>> sets(kCpus);
      double placed_util = 0.0;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (r.assignment[i] == global::kInvalidCpu) continue;
        ASSERT_LT(r.assignment[i], kCpus);
        sets[r.assignment[i]].push_back(tasks[i]);
        placed_util += static_cast<double>(tasks[i].slice) /
                       static_cast<double>(tasks[i].period);
      }
      for (std::uint32_t cpu = 0; cpu < kCpus; ++cpu) {
        EXPECT_TRUE(rt::edf_admissible(sets[cpu], kCapacity))
            << global::policy_name(p) << " overloaded cpu " << cpu
            << " (seed " << seed << ")";
        EXPECT_NEAR(r.per_cpu[cpu], rt::total_utilization(sets[cpu]), 1e-9);
      }
      EXPECT_NEAR(r.admitted_util, placed_util, 1e-9);
    }
  }
}

TEST(Placement, SemiPartitionedBeatsBestPure) {
  constexpr std::uint32_t kCpus = 4;
  constexpr double kCapacity = 0.79;
  bool strictly_better_somewhere = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng(seed);
    rt::TaskSetParams params;
    params.n = 5;
    params.total_utilization = 3.0;  // heavy tasks: some exceed one CPU
    params.min_slice = sim::micros(10);
    const auto tasks = rt::generate_taskset(params, rng);
    const auto semi = global::pack_semi_partitioned(
        tasks, kCpus, kCapacity, sim::micros(10), /*max_chunks=*/4);
    double best_pure = 0.0;
    for (global::Policy p :
         {global::Policy::kFirstFit, global::Policy::kBestFit,
          global::Policy::kWorstFit}) {
      const auto r = global::pack_decreasing(tasks, kCpus, kCapacity, p);
      best_pure = std::max(best_pure, r.admitted_util);
    }
    EXPECT_GE(semi.admitted_util, best_pure - 1e-9) << "seed " << seed;
    if (semi.admitted_util > best_pure + 1e-9) strictly_better_somewhere = true;
    // Split chunks never exceed any CPU's capacity either.
    for (std::uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      EXPECT_LE(semi.per_cpu[cpu], kCapacity + 1e-9);
    }
  }
  EXPECT_TRUE(strictly_better_somewhere)
      << "splitting never admitted more than pure partitioning";
}

TEST(Placement, SplitPlanPipelineMath) {
  rt::PeriodicTask task;
  task.period = sim::millis(1);
  task.slice = sim::micros(900);  // u = 0.9: fits no single CPU below
  task.phase = sim::micros(500);
  const std::vector<double> headroom = {0.5, 0.3, 0.5};
  const auto plan =
      global::split_task(task, headroom, sim::micros(10), /*max_chunks=*/8);
  ASSERT_TRUE(plan.ok);
  ASSERT_GE(plan.chunks.size(), 2u);
  sim::Nanos total = 0;
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    const auto& c = plan.chunks[i].constraints;
    ASSERT_EQ(c.cls, rt::ConstraintClass::kPeriodic);
    EXPECT_EQ(c.period, task.period);
    // Pipeline phasing: chunk i's window is [phase + i*tau, phase+(i+1)*tau),
    // so chunk i's deadline is exactly chunk i+1's release — the chunks of
    // one logical job can never run concurrently.
    EXPECT_EQ(c.phase, task.phase + static_cast<sim::Nanos>(i) * task.period);
    ASSERT_LT(plan.chunks[i].cpu, headroom.size());
    EXPECT_LE(c.utilization(), headroom[plan.chunks[i].cpu] + 1e-9);
    EXPECT_GE(c.slice, sim::micros(10));
    total += c.slice;
  }
  EXPECT_EQ(total, task.slice);  // the whole job's work is preserved
}

// A split plan is a long-lived commitment, so chunk sizing must respect what
// each CPU can actually deliver: the ledger headroom minus the CPU's worst
// recent missing-time window (docs/RESILIENCE.md follow-up).
TEST(Placement, SplitPlanDegradesByMissingTime) {
  auto slice_on = [](const global::SplitPlan& plan, std::uint32_t cpu) {
    sim::Nanos s = 0;
    for (const auto& c : plan.chunks) {
      if (c.cpu == cpu) s += c.constraints.slice;
    }
    return s;
  };
  auto degrade_cpu0 = [](System& sys) {
    // Seed the estimator directly (no SMIs in this test): one 800 us episode
    // in a 2 ms window is a 0.4 worst-window fraction once the window closes.
    auto& est = sys.sched(0).missing_time();
    const sim::Nanos t0 = sys.engine().now();
    est.note_episode(sim::micros(800), 0, t0);
    est.advance(t0 + est.config().window_ns + 1);
    ASSERT_NEAR(est.windowed_max_fraction(), 0.4, 0.02);
  };
  const auto wide =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(900));

  System::Options o = placed(2, 0);
  o.sched.estimator.enabled = true;  // estimator only; no storm controller
  System sys(std::move(o));
  sys.boot();
  const sim::Nanos min_slice = sys.options().sched.min_slice;

  const auto clean = sys.placement().plan_split(wide, min_slice);
  ASSERT_TRUE(clean.ok);
  // Equal headroom: the stable sort fills cpu0 first (0.79), tail on cpu1.
  EXPECT_GT(slice_on(clean, 0), slice_on(clean, 1));

  degrade_cpu0(sys);
  const auto degraded = sys.placement().plan_split(wide, min_slice);
  ASSERT_TRUE(degraded.ok);
  // The degraded CPU's chunk shrank; the work moved to the healthy CPU.
  EXPECT_LT(slice_on(degraded, 0), slice_on(clean, 0));
  EXPECT_GT(slice_on(degraded, 1), slice_on(clean, 1));
  // Chunks respect the *degraded* headroom, not just the ledger's.
  EXPECT_LE(static_cast<double>(slice_on(degraded, 0)) /
                static_cast<double>(wide.period),
            sys.placement().ledger().headroom(0) - 0.4 + 1e-9);
  sim::Nanos total = 0;
  for (const auto& c : degraded.chunks) total += c.constraints.slice;
  EXPECT_EQ(total, wide.slice);  // work conserved either way
}

// ---------- job-boundary RT migration ----------

TEST(Migration, JobBoundaryHandoff) {
  System sys(placed(4));
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  nk::Thread* t = sys.spawn("mover", rt_worker(c), 1);
  sys.run_for(sim::millis(10));
  ASSERT_TRUE(admitted_rt(t));
  ASSERT_EQ(t->cpu, 1u);
  const std::uint64_t arrivals_before = t->rt.arrivals;

  ASSERT_TRUE(sys.sched(1).request_migration(*t, 2));
  sys.run_for(sim::millis(20));

  EXPECT_EQ(t->cpu, 2u);
  EXPECT_EQ(t->migrate_to, nk::kNoMigrateTarget);
  EXPECT_NEAR(sys.sched(1).admitted_utilization(), 0.0, 1e-9);
  EXPECT_NEAR(sys.sched(2).admitted_utilization(), 0.3, 1e-9);
  EXPECT_NEAR(sys.placement().ledger().committed(1), 0.0, 1e-9);
  EXPECT_NEAR(sys.placement().ledger().committed(2), 0.3, 1e-9);
  EXPECT_EQ(sys.sched(1).stats().migrations_requested, 1u);
  EXPECT_EQ(sys.sched(1).stats().migrations_out, 1u);
  EXPECT_EQ(sys.sched(2).stats().migrations_in, 1u);
  EXPECT_EQ(sys.sched(1).stats().migration_failures, 0u);
  // Lifetime stats survived the move and the thread kept running.
  EXPECT_GT(t->rt.arrivals, arrivals_before);
  EXPECT_EQ(t->rt.misses, 0u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Migration, AuditCatchesStaleCpu) {
  System::Options o = placed(4);
  o.sched.test_faults.stale_migrate_cpu = true;
  System sys(o);
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  const std::uint64_t n = run_counting(sys, audit::Invariant::kMigration, [&] {
    nk::Thread* t = sys.spawn("stale", rt_worker(c), 1);
    sys.run_for(sim::millis(10));
    ASSERT_TRUE(sys.sched(1).request_migration(*t, 2));
    sys.run_for(sim::millis(3));
  });
  EXPECT_GE(n, 1u);
}

// ---------- rebalancer ----------

TEST(Rebalance, MakeRoomAdmitsAfterMigration) {
  System sys(placed(2, 0));
  sys.boot();
  auto util = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  nk::Thread* a = sys.spawn_auto("a", busy(), util(sim::micros(300)));
  sys.run_for(sim::millis(3));
  nk::Thread* b = sys.spawn_auto("b", busy(), util(sim::micros(300)));
  sys.run_for(sim::millis(3));
  ASSERT_TRUE(admitted_rt(a));
  ASSERT_TRUE(admitted_rt(b));
  ASSERT_NE(a->cpu, b->cpu);  // worst-fit spread them out

  // 0.6 fits neither CPU (capacity 0.79, each holds 0.3) — the auto-admit
  // retry path must migrate one of a/b aside to make room.
  nk::Thread* big = sys.spawn_auto("big", busy(), util(sim::micros(600)));
  sys.run_for(sim::millis(50));

  EXPECT_TRUE(admitted_rt(big));
  EXPECT_GE(sys.placement().rebalancer().stats().make_room_migrations, 1u);
  EXPECT_EQ(a->rt.misses, 0u);
  EXPECT_EQ(b->rt.misses, 0u);
  EXPECT_EQ(big->rt.misses, 0u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Rebalance, ExitTriggersRebalance) {
  // Four 0.3 threads spread 2+2; the two transient ones land on the same
  // CPU (worst-fit alternates), and their exits leave a 0.6-vs-0 imbalance
  // the exit-rebalance pass must level with one migration at the default
  // threshold, and must leave alone at a threshold above the gap.
  for (const double threshold : {0.25, 0.61}) {
    SCOPED_TRACE(threshold);
    System::Options o = placed(2, 0);
    o.placement_config.rebalance_threshold = threshold;
    System sys(o);
    sys.boot();
    const auto c = rt::Constraints::periodic(sim::millis(1), sim::millis(1),
                                             sim::micros(300));
    nk::Thread* t1 =
        sys.spawn_auto("short1", finite_worker(8, sim::micros(250)), c);
    sys.run_for(sim::millis(2));
    nk::Thread* p1 = sys.spawn_auto("long1", busy(), c);
    sys.run_for(sim::millis(2));
    nk::Thread* t2 =
        sys.spawn_auto("short2", finite_worker(8, sim::micros(250)), c);
    sys.run_for(sim::millis(2));
    nk::Thread* p2 = sys.spawn_auto("long2", busy(), c);
    sys.run_for(sim::millis(2));
    ASSERT_TRUE(admitted_rt(t1) && admitted_rt(p1) && admitted_rt(t2) &&
                admitted_rt(p2));
    ASSERT_EQ(t1->cpu, t2->cpu);
    ASSERT_EQ(p1->cpu, p2->cpu);
    ASSERT_NE(t1->cpu, p1->cpu);

    sys.run_for(sim::millis(40));  // transients exit; rebalancer levels

    EXPECT_TRUE(t1->state == nk::Thread::State::kExited ||
                t1->state == nk::Thread::State::kPooled);
    EXPECT_TRUE(t2->state == nk::Thread::State::kExited ||
                t2->state == nk::Thread::State::kPooled);
    const auto& ledger = sys.placement().ledger();
    const double gap = std::abs(ledger.committed(0) - ledger.committed(1));
    const auto moved = sys.placement().rebalancer().stats().migrations_proposed;
    if (threshold < 0.6) {
      EXPECT_GE(moved, 1u);
      EXPECT_LE(gap, 0.25 + 1e-9);
    } else {
      EXPECT_EQ(moved, 0u);
      EXPECT_NEAR(gap, 0.6, 1e-6);
    }
    EXPECT_EQ(p1->rt.misses, 0u);
    EXPECT_EQ(p2->rt.misses, 0u);
    EXPECT_EQ(sys.auditor().total_violations(), 0u);
  }
}

TEST(Rebalance, MakeRoomTiesPickEarlierVictimAndLowerDestination) {
  // CPU 0 holds two equal 0.2 threads (headroom 0.39); CPUs 1 and 2 tie at
  // headroom 0.30; CPU 3 has 0.10.  A 0.5 request fits nowhere, so
  // make_room's first candidate is CPU 0: both threads cover the 0.11
  // deficit, and both CPUs 1 and 2 can absorb one.  Ties go to the
  // earlier-spawned victim and the lower-numbered destination.
  System sys(placed(4, 0));
  sys.boot();
  auto util = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  nk::Thread* first = sys.spawn("first", rt_worker(util(sim::micros(200))), 0);
  nk::Thread* second =
      sys.spawn("second", rt_worker(util(sim::micros(200))), 0);
  sys.spawn("one", rt_worker(util(sim::micros(490))), 1);
  sys.spawn("two", rt_worker(util(sim::micros(490))), 2);
  sys.spawn("three", rt_worker(util(sim::micros(690))), 3);
  sys.run_for(sim::millis(5));
  const auto& ledger = sys.placement().ledger();
  ASSERT_TRUE(admitted_rt(first) && admitted_rt(second));
  ASSERT_EQ(ledger.committed_raw(1), ledger.committed_raw(2));
  ASSERT_EQ(sys.placement().engine().rt_cpu_order().front(), 0u);

  const std::uint32_t x = sys.placement().rebalancer().make_room(
      util(sim::micros(500)), nullptr);
  EXPECT_EQ(x, 0u);
  EXPECT_EQ(sys.placement().rebalancer().stats().make_room_migrations, 1u);
  sys.run_for(sim::millis(5));
  EXPECT_EQ(first->cpu, 1u);
  EXPECT_EQ(second->cpu, 0u);
  EXPECT_NEAR(ledger.committed(1), 0.69, 1e-9);
  EXPECT_NEAR(ledger.committed(2), 0.49, 1e-9);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Placement, RtCpuOrderMatchesStableSortReference) {
  // rt_cpu_order over a hand-fed ledger must equal a std::stable_sort of
  // 0..n-1 with the comparator it has always meant: quiet before
  // storm-hit, interrupt-free before laden (when the machine has an
  // interrupt-free CPU), then more headroom first, ties in CPU order.
  // Headrooms come from a few discrete levels, so ties are common.
  sim::Rng rng(20260417);
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<std::uint32_t>(rng.uniform(1, 24));
    global::UtilizationLedger ledger(n, 0.8);
    for (std::uint32_t c = 0; c < n; ++c) {
      const auto level = rng.uniform(0, 9);  // 9: over capacity, headroom 0
      if (level > 0) {
        ledger.on_admit_raw(
            c, rt::fp::from_double_ceil(0.1 * static_cast<double>(level)));
      }
    }
    std::vector<std::uint8_t> storm(n);
    for (auto& f : storm) f = rng.uniform(0, 3) == 0 ? 1 : 0;
    if (round % 2 == 0) {
      for (std::uint32_t c = 0; c < n; ++c) ledger.set_storm_hit(c, storm[c]);
    }
    for (const std::uint32_t laden : {0u, 1u, 4u}) {
      global::Config cfg;
      cfg.interrupt_laden_cpus = laden;
      global::PlacementEngine engine(ledger, cfg);

      std::vector<std::uint32_t> want(n);
      std::iota(want.begin(), want.end(), 0u);
      const std::uint32_t free_from = laden < n ? laden : 0;
      std::stable_sort(want.begin(), want.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         const bool sa = engine.storm_hit(a);
                         const bool sb = engine.storm_hit(b);
                         if (sa != sb) return !sa;
                         const bool fa = a >= free_from, fb = b >= free_from;
                         if (fa != fb) return fa;
                         return ledger.headroom(a) > ledger.headroom(b);
                       });
      EXPECT_EQ(engine.rt_cpu_order(), want)
          << "round " << round << " n " << n << " laden " << laden;
    }
  }
}

TEST(Rebalance, DestinationIsFirstFittingCpuInRtOrder) {
  // rebalance_once migrates to the first CPU of rt_cpu_order() other than
  // the most-committed one that has room for the moved thread.  CPU 1 holds
  // 0.6 and every other CPU is idle, so CPUs 0, 2, 3 and 4 all fit a 0.3
  // thread.  CPU 0 is interrupt-laden and CPU 2 storm-hit, which puts CPU 3
  // first among them in rt_cpu_order().
  System sys(placed(5, 1));
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  nk::Thread* a = sys.spawn("a", rt_worker(c), 1);
  nk::Thread* b = sys.spawn("b", rt_worker(c), 1);
  sys.run_for(sim::millis(5));
  ASSERT_TRUE(admitted_rt(a) && admitted_rt(b));
  sys.placement().ledger().set_storm_hit(2, true);
  const auto& ledger = sys.placement().ledger();
  std::uint32_t want = global::kInvalidCpu;
  for (const std::uint32_t cpu : sys.placement().engine().rt_cpu_order()) {
    if (cpu != 1 && ledger.headroom(cpu) >= c.utilization()) {
      want = cpu;
      break;
    }
  }
  ASSERT_EQ(want, 3u);
  ASSERT_TRUE(sys.placement().rebalancer().rebalance_once());
  sys.run_for(sim::millis(5));
  EXPECT_EQ(a->cpu, want);  // equal victims: the earlier-spawned one moves
  EXPECT_EQ(b->cpu, 1u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Rebalance, ExitRebalanceKeepsRtOffLadenCpu) {
  // Section 3.5: CPU 0 takes the device interrupts.  CPU 1 holds two 0.3
  // threads and CPUs 2-4 hold 0.1 each, so the idle laden CPU 0 is the
  // least committed.  The re-leveling move still lands where placement
  // would put the same spec: interrupt-free CPU 2.
  System sys(placed(5, 1));
  sys.boot();
  auto util = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  nk::Thread* a = sys.spawn("a", rt_worker(util(sim::micros(300))), 1);
  nk::Thread* b = sys.spawn("b", rt_worker(util(sim::micros(300))), 1);
  sys.spawn("s2", rt_worker(util(sim::micros(100))), 2);
  sys.spawn("s3", rt_worker(util(sim::micros(100))), 3);
  sys.spawn("s4", rt_worker(util(sim::micros(100))), 4);
  sys.run_for(sim::millis(5));
  ASSERT_TRUE(admitted_rt(a) && admitted_rt(b));
  ASSERT_NEAR(sys.placement().ledger().committed(4), 0.1, 1e-9);
  ASSERT_EQ(sys.placement().place(util(sim::micros(300))), 2u);

  ASSERT_TRUE(sys.placement().rebalancer().rebalance_once());
  sys.run_for(sim::millis(5));
  EXPECT_EQ(a->cpu, 2u);
  EXPECT_EQ(b->cpu, 1u);
  EXPECT_NEAR(sys.placement().ledger().committed(0), 0.0, 1e-9);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Rebalance, MakeRoomKeepsRtOffLadenCpu) {
  // Section 3.5: CPU 0 takes the device interrupts.  A 0.5 request fits no
  // CPU; make_room's first candidate is CPU 2 (headroom 0.49), whose 0.3
  // thread covers the 0.01 deficit.  The thread moves to the first other
  // CPU of the ranking with room for it, interrupt-free CPU 3 (headroom
  // 0.39), not to the roomier laden CPU 0.
  System sys(placed(5, 1));
  sys.boot();
  auto util = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  sys.spawn("c1a", rt_worker(util(sim::micros(200))), 1);
  sys.spawn("c1b", rt_worker(util(sim::micros(500))), 1);
  nk::Thread* mover = sys.spawn("c2", rt_worker(util(sim::micros(300))), 2);
  sys.spawn("c3", rt_worker(util(sim::micros(400))), 3);
  sys.spawn("c4", rt_worker(util(sim::micros(600))), 4);
  sys.run_for(sim::millis(5));
  ASSERT_TRUE(admitted_rt(mover));
  ASSERT_NEAR(sys.placement().ledger().committed(1), 0.7, 1e-9);
  ASSERT_NEAR(sys.placement().ledger().committed(4), 0.6, 1e-9);

  EXPECT_EQ(sys.placement().rebalancer().make_room(util(sim::micros(500)),
                                                   nullptr),
            2u);
  EXPECT_EQ(sys.placement().rebalancer().stats().make_room_migrations, 1u);
  sys.run_for(sim::millis(5));
  EXPECT_EQ(mover->cpu, 3u);
  EXPECT_NEAR(sys.placement().ledger().committed(0), 0.0, 1e-9);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Rebalance, MakeRoomWalksPastVictimlessCandidates) {
  // A 0.7 request fits no CPU (capacity 0.79).  In rt_cpu_order() CPU 2
  // (headroom 0.59) and CPU 0 (0.54) come first, but every thread on them
  // is smaller than their deficit; CPU 3 (0.49) is the first candidate
  // whose thread covers it, and CPU 2 is the first other CPU of the
  // ranking with room for that thread.
  System sys(placed(4, 0));
  sys.boot();
  auto util = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  sys.spawn("c2a", rt_worker(util(sim::micros(100))), 2);
  sys.spawn("c2b", rt_worker(util(sim::micros(100))), 2);
  sys.spawn("c0a", rt_worker(util(sim::micros(150))), 0);
  sys.spawn("c0b", rt_worker(util(sim::micros(100))), 0);
  nk::Thread* mover = sys.spawn("c3", rt_worker(util(sim::micros(300))), 3);
  sys.spawn("c1a", rt_worker(util(sim::micros(300))), 1);
  sys.spawn("c1b", rt_worker(util(sim::micros(300))), 1);
  sys.run_for(sim::millis(5));
  const std::vector<std::uint32_t> order =
      sys.placement().engine().rt_cpu_order();
  ASSERT_EQ(order, (std::vector<std::uint32_t>{2, 0, 3, 1}));

  const std::uint32_t x = sys.placement().rebalancer().make_room(
      util(sim::micros(700)), nullptr);
  EXPECT_EQ(x, order[2]);
  EXPECT_EQ(sys.placement().rebalancer().stats().make_room_migrations, 1u);
  sys.run_for(sim::millis(5));
  EXPECT_EQ(mover->cpu, 2u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Rebalance, MakeRoomOverCapacitySpecMigratesNothing) {
  // A movable 0.75 thread sits on CPU 0; then every CPU's capacity word
  // drops to 0.5, below it.  A 0.7 spec exceeds every capacity: the 0.75
  // thread covers CPU 0's deficit, but no CPU has room to take it, so
  // make_room gives up and proposes nothing.
  System sys(placed(2, 0));
  sys.boot();
  auto util = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  nk::Thread* big = sys.spawn("big", rt_worker(util(sim::micros(750))), 0);
  sys.run_for(sim::millis(5));
  ASSERT_TRUE(admitted_rt(big));
  ASSERT_TRUE(sys.placement().rebalancer().movable(big));
  auto& ledger = sys.placement().ledger();
  for (std::uint32_t c = 0; c < 2; ++c) ledger.set_capacity(c, 0.5);

  const auto& stats = sys.placement().rebalancer().stats();
  EXPECT_EQ(sys.placement().rebalancer().make_room(util(sim::micros(700)),
                                                   nullptr),
            global::kInvalidCpu);
  EXPECT_EQ(stats.make_room_calls, 1u);
  EXPECT_EQ(stats.make_room_migrations, 0u);
  EXPECT_EQ(stats.migrations_proposed, 0u);
  sys.run_for(sim::millis(5));
  EXPECT_EQ(big->cpu, 0u);
  EXPECT_EQ(big->migrate_to, nk::kNoMigrateTarget);
}

/// place_batch as it was before its CPUs were kept in a heap: for every
/// spec, in worst-fit-decreasing order, up to eight full scans of the
/// scratch ledger (partition, storm flag, fit), each taking the roomiest
/// CPU that passes, lowest index on ties.  fell_back[i], when asked for, is
/// whether specs[i] fit no CPU.
std::vector<std::uint32_t> place_batch_by_scan(
    const global::UtilizationLedger& ledger,
    const global::PlacementEngine& engine,
    const std::vector<rt::Constraints>& specs,
    std::vector<bool>* fell_back = nullptr) {
  constexpr double kEps = 1e-9;
  const global::Config& cfg = engine.config();
  const std::uint32_t n = ledger.num_cpus();
  std::vector<std::uint32_t> out(specs.size(), global::kInvalidCpu);
  if (fell_back != nullptr) fell_back->assign(specs.size(), true);
  if (n == 0 || specs.empty()) return out;
  std::vector<double> head(n);
  for (std::uint32_t c = 0; c < n; ++c) head[c] = ledger.headroom(c);
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].utilization() > specs[b].utilization();
                   });
  const bool steer = cfg.interrupt_laden_cpus < n;
  for (const std::size_t i : order) {
    const double util = specs[i].utilization();
    auto scan = [&](bool want_free, bool avoid_storm, bool need_fit) {
      std::uint32_t best = global::kInvalidCpu;
      for (std::uint32_t c = 0; c < n; ++c) {
        if (avoid_storm && engine.storm_hit(c)) continue;
        if (steer && ((c >= cfg.interrupt_laden_cpus) != want_free)) continue;
        if (need_fit && head[c] + kEps < util) continue;
        if (best == global::kInvalidCpu || head[c] > head[best]) best = c;
      }
      return best;
    };
    std::uint32_t cpu = global::kInvalidCpu;
    const bool free_first = !steer || specs[i].is_realtime();
    for (const bool need_fit : {true, false}) {
      cpu = scan(free_first, true, need_fit);
      if (cpu == global::kInvalidCpu) cpu = scan(!free_first, true, need_fit);
      if (cpu == global::kInvalidCpu) cpu = scan(free_first, false, need_fit);
      if (cpu == global::kInvalidCpu) cpu = scan(!free_first, false, need_fit);
      if (cpu != global::kInvalidCpu) {
        if (fell_back != nullptr) (*fell_back)[i] = !need_fit;
        break;
      }
    }
    out[i] = cpu;
    if (cpu != global::kInvalidCpu) {
      head[cpu] -= util;
      if (head[cpu] < 0.0) head[cpu] = 0.0;
    }
  }
  return out;
}

TEST(Placement, PlaceBatchMatchesScanReference) {
  // place_batch must pick exactly what the full scans picked, on random
  // batches against hand-fed ledgers: committed loads from a few discrete
  // levels (ties are common), some capacities lowered as storm degradation
  // does (headroom not monotone in committed load), storm flags on half the
  // cases, laden partitions from empty to past the machine (steering on
  // and off), and aperiodic, periodic, over-capacity and zero-period specs.
  // Single-spec placement (GlobalScheduler::place) must pick what the scans
  // pick for each of a batch's first four specs alone, counting a fallback
  // exactly when the spec fits no CPU.
  sim::Rng rng(20181018);
  for (int round = 0; round < 20000; ++round) {
    const auto n = static_cast<std::uint32_t>(rng.uniform(0, 300));
    const std::uint32_t ladens[] = {0, 1, 4, n, n + 3};
    global::Config cfg;
    cfg.interrupt_laden_cpus = ladens[rng.uniform(0, 4)];
    global::GlobalScheduler gs(n, 0.8, cfg);
    global::UtilizationLedger& ledger = gs.ledger();
    for (std::uint32_t c = 0; c < n; ++c) {
      const auto level = rng.uniform(0, 9);
      if (level > 0) {
        ledger.on_admit_raw(
            c, rt::fp::from_double_ceil(0.1 * static_cast<double>(level)));
      }
      if (rng.uniform(0, 4) == 0) {
        ledger.set_capacity(c, 0.1 * static_cast<double>(rng.uniform(1, 7)));
      }
    }
    std::vector<std::uint8_t> storm(n);
    for (auto& f : storm) f = rng.uniform(0, 3) == 0 ? 1 : 0;
    if (round % 2 == 1) {
      for (std::uint32_t c = 0; c < n; ++c) ledger.set_storm_hit(c, storm[c]);
    }
    const global::PlacementEngine& engine = gs.engine();

    std::vector<rt::Constraints> specs(
        static_cast<std::size_t>(rng.uniform(0, 64)));
    for (rt::Constraints& s : specs) {
      const auto kind = rng.uniform(0, 9);
      if (kind == 0) {
        s = rt::Constraints::aperiodic();
      } else if (kind == 1) {
        s = rt::Constraints::periodic(0, 0, sim::micros(100));
      } else if (kind == 2) {
        s = rt::Constraints::periodic(0, sim::millis(1),
                                      sim::micros(rng.uniform(900, 1500)));
      } else {
        s = rt::Constraints::periodic(0, sim::millis(1),
                                      sim::micros(50 * rng.uniform(1, 10)));
      }
    }
    ASSERT_EQ(engine.place_batch(specs),
              place_batch_by_scan(ledger, engine, specs))
        << "round " << round << " n " << n << " laden "
        << cfg.interrupt_laden_cpus << " specs " << specs.size();
    for (std::size_t i = 0; i < std::min<std::size_t>(specs.size(), 4); ++i) {
      std::vector<bool> fell_back;
      const std::uint32_t want =
          place_batch_by_scan(ledger, engine, {specs[i]}, &fell_back).front();
      const std::uint64_t before = gs.stats().fallback_placements;
      ASSERT_EQ(gs.place(specs[i]), want)
          << "round " << round << " spec " << i;
      ASSERT_EQ(gs.stats().fallback_placements - before,
                fell_back.front() ? 1u : 0u)
          << "round " << round << " spec " << i;
    }
  }
}

// ---------- topology-aware + group placement ----------

TEST(Placement, TopologySteersRtOffLadenCpu) {
  System sys(placed(4, 2));
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(200));
  std::vector<nk::Thread*> rts;
  for (int i = 0; i < 4; ++i) {
    rts.push_back(sys.spawn_auto("rt" + std::to_string(i), busy(), c));
    sys.run_for(sim::millis(3));
  }
  for (nk::Thread* t : rts) {
    EXPECT_TRUE(admitted_rt(t));
    EXPECT_GE(t->cpu, 2u) << "RT thread placed on interrupt-laden cpu";
  }
  nk::Thread* ap =
      sys.spawn_auto("aper", busy(), rt::Constraints::aperiodic());
  EXPECT_LT(ap->cpu, 2u) << "aperiodic thread wasted interrupt-free cpu";
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Placement, ExactlyFullSpecsStayPlaceable) {
  // A 0.79 spec fills the 0.79 RT capacity exactly.  Its demand quantum is
  // one above the floored capacity word, so a fit test on the word alone
  // would refuse what admission's exact fallback admits.
  const auto spec = [](sim::Nanos slice) {
    return rt::Constraints::periodic(0, sim::millis(1), slice);
  };
  {
    System sys(placed(4, 0));
    sys.boot();
    const auto full = spec(sim::micros(790));
    ASSERT_GT(rt::fp::from_double_ceil(full.utilization()),
              sys.placement().ledger().capacity_raw(0));
    EXPECT_EQ(sys.placement().place(full), 0u);
    EXPECT_EQ(sys.placement().stats().fallback_placements, 0u);
    EXPECT_EQ(sys.placement().engine().choose_group(3, full).size(), 3u);
    const auto members = sys.spawn_group_auto(
        "full", 3, full, [](std::uint32_t) { return busy(); });
    ASSERT_EQ(members.size(), 3u);
    sys.run_for(sim::millis(40));
    for (nk::Thread* t : members) EXPECT_TRUE(admitted_rt(t)) << t->name;
  }
  {
    // 0.29 beside an admitted 0.5 on the only CPU: an exact fit.
    System sys(placed(1, 0));
    sys.boot();
    nk::Thread* half = sys.spawn("half", rt_worker(spec(sim::micros(500))), 0);
    sys.run_for(sim::millis(3));
    ASSERT_TRUE(admitted_rt(half));
    const auto rest = spec(sim::micros(290));
    EXPECT_EQ(sys.placement().place(rest), 0u);
    EXPECT_EQ(sys.placement().stats().fallback_placements, 0u);
    EXPECT_TRUE(sys.sched(0).probe_admission(rest));
  }
}

TEST(Group, AutoPlacementCoLocates) {
  System sys(placed(4, 1));
  sys.boot();
  const auto c = rt::Constraints::periodic(sim::millis(2), sim::millis(1),
                                           sim::micros(150));
  const auto members = sys.spawn_group_auto(
      "team", 3, c, [](std::uint32_t) { return busy(); });
  ASSERT_EQ(members.size(), 3u);
  std::set<std::uint32_t> cpus;
  for (nk::Thread* t : members) cpus.insert(t->cpu);
  EXPECT_EQ(cpus.size(), 3u);  // distinct CPUs: members run concurrently
  for (std::uint32_t cpu : cpus) EXPECT_GE(cpu, 1u);  // interrupt-free

  sys.run_for(sim::millis(40));
  for (nk::Thread* t : members) {
    auto* b = dynamic_cast<grp::GroupAdmitThenBehavior*>(t->behavior);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->protocol().succeeded());
    EXPECT_TRUE(admitted_rt(t));
    EXPECT_EQ(t->rt.misses, 0u);
  }
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

// ---------- overflow spawn + churn ----------

TEST(Overflow, SpawnSplitAdmitsOversizedTask) {
  System sys(placed(2, 0));
  sys.boot();
  // u = 0.9 fits no single CPU (capacity 0.79); the split spawns pipeline
  // chunks whose phases differ by exactly one period.
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(900));
  const auto chunks = sys.spawn_split("wide", c);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_NE(chunks[0]->cpu, chunks[1]->cpu);

  sys.run_for(sim::millis(40));
  sim::Nanos total_slice = 0;
  for (nk::Thread* t : chunks) {
    EXPECT_TRUE(admitted_rt(t));
    EXPECT_EQ(t->rt.misses, 0u);
    total_slice += t->constraints.slice;
  }
  EXPECT_EQ(total_slice, c.slice);
  // Aligned release grids (docs/GLOBAL.md): the chunks' absolute first
  // arrivals (gamma + committed phase) sit exactly one period apart on one
  // shared grid, and the whole-period pipeline offsets are preserved.
  const sim::Nanos a0 = chunks[0]->rt.gamma + chunks[0]->constraints.phase;
  const sim::Nanos a1 = chunks[1]->rt.gamma + chunks[1]->constraints.phase;
  EXPECT_EQ(((a1 - a0) % c.period + c.period) % c.period, 0);
  // Whole-period phase parts: the spec's own phase offset plus the chunk
  // index (chunk i trails chunk 0 by i periods in the pipeline).
  EXPECT_EQ(chunks[0]->constraints.phase / c.period, c.phase / c.period);
  EXPECT_EQ(chunks[1]->constraints.phase / c.period, c.phase / c.period + 1);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Overflow, SpawnSplitChunksHonorSchedulerMinSlice) {
  // spawn_split sizes its chunks with Options::sched.min_slice, the floor
  // the local schedulers enforce at admission.  With the default floor this
  // u = 0.9 spec splits 790 + 110 us over two 0.79 CPUs; a floor above that
  // tail moves the tail up to the floor.
  const sim::Nanos floor = sim::micros(200);
  System::Options o = placed(2, 0);
  o.sched.min_slice = floor;
  System sys(std::move(o));
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(900));
  const auto by_default =
      sys.placement().plan_split(c, rt::LocalScheduler::Config{}.min_slice);
  ASSERT_TRUE(by_default.ok);
  ASSERT_LT(by_default.chunks.back().constraints.slice, floor);

  const auto chunks = sys.spawn_split("wide", c);
  ASSERT_EQ(chunks.size(), 2u);
  sys.run_for(sim::millis(40));
  sim::Nanos total_slice = 0;
  for (nk::Thread* t : chunks) {
    EXPECT_TRUE(admitted_rt(t));
    EXPECT_EQ(t->rt.misses, 0u);
    EXPECT_GE(t->constraints.slice, floor);
    total_slice += t->constraints.slice;
  }
  EXPECT_EQ(total_slice, c.slice);
}

// Regression for the docs/GLOBAL.md caveat: chunks admitting at skewed
// gammas used to carry grids offset by the skew.  Aligned release's
// commit-time rewrite lands every chunk on the shared anchor grid exactly,
// even though the scenario produces admission skew.
TEST(Overflow, SplitChunksShareExactReleaseGridUnderSkew) {
  System sys(placed(2, 0));
  sys.machine().trace().enable();
  sys.boot();
  // One-shot aperiodic hogs of different lengths delay each chunk's first
  // run — and therefore its admission gamma — by different amounts.
  sys.spawn("hog0", finite_worker(1, sim::micros(70)), 0, 5);
  sys.spawn("hog1", finite_worker(1, sim::micros(130)), 1, 5);
  const auto c = rt::Constraints::periodic(sim::millis(1), sim::millis(1),
                                           sim::micros(900));
  const auto chunks = sys.spawn_split("wide", c);
  ASSERT_EQ(chunks.size(), 2u);
  sys.run_for(sim::millis(40));
  for (nk::Thread* t : chunks) ASSERT_TRUE(admitted_rt(t));
  const sim::Nanos skew = chunks[1]->rt.gamma - chunks[0]->rt.gamma;
  ASSERT_NE(skew % c.period, 0) << "scenario must produce admission skew";

  const sim::Nanos a0 = chunks[0]->rt.gamma + chunks[0]->constraints.phase;
  const sim::Nanos a1 = chunks[1]->rt.gamma + chunks[1]->constraints.phase;
  const sim::Nanos grid_offset = ((a1 - a0) % c.period + c.period) % c.period;
  EXPECT_EQ(grid_offset, 0) << "chunks must share one release grid";
  EXPECT_EQ(chunks[1]->constraints.phase / c.period -
                chunks[0]->constraints.phase / c.period,
            1)
      << "pipeline offset preserved";
  // The skewed split passes the replay oracle with zero misses on both
  // CPUs.
  const audit::ReplayConfig cfg =
      audit::replay_config_for(sys.machine().spec());
  for (nk::Thread* t : chunks) {
    EXPECT_EQ(t->rt.misses, 0u);
    const std::vector<audit::ReplayTask> tasks = {
        {t->id, t->constraints, t->rt.gamma}};
    audit::ReplayResult r = audit::replay_edf(
        sys.machine().trace(), t->cpu, tasks, cfg, sys.engine().now());
    for (const auto& d : r.divergences) {
      ADD_FAILURE() << "cpu " << t->cpu << " t=" << d.time << "ns: "
                    << d.detail;
    }
    audit::verify_stats(r, t->id, t->rt.arrivals, t->rt.completions,
                        t->rt.misses, 2);
    EXPECT_TRUE(r.ok());
  }
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Placement, ChurnKeepsLedgerInvariants) {
  System sys(placed(4, 1));
  sys.boot();
  auto periodic = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  // Each CPU's word must equal the ceil-rounded quanta of the RT threads
  // living on it, summed here apart from the scheduler's own bookkeeping.
  const auto& ledger = sys.placement().ledger();
  auto expect_ledger_matches_threads = [&] {
    std::vector<rt::fp::Raw> held(4, 0);
    for (const nk::Thread* t : sys.kernel().live_threads()) {
      if (t->state == nk::Thread::State::kExited) continue;
      if (t->constraints.cls == rt::ConstraintClass::kPeriodic) {
        held[t->cpu] += rt::fp::from_double_ceil(t->constraints.utilization());
      } else if (t->constraints.cls == rt::ConstraintClass::kSporadic) {
        held[t->cpu] += rt::fp::from_double_ceil(t->rt.density);
      }
    }
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
      EXPECT_EQ(ledger.committed_raw(cpu), held[cpu]) << "cpu " << cpu;
    }
  };
  // Waves of transient RT threads plus one sporadic: admissions, exits, and
  // rebalance migrations all feed the ledger; every scheduler pass
  // recomputes it from the scheduler's admitted sets (kUtilization).
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 4; ++i) {
      sys.spawn_auto("w" + std::to_string(wave) + "." + std::to_string(i),
                     finite_worker(12, sim::micros(120)),
                     periodic(sim::micros(150)));
      sys.run_for(sim::millis(2));
      expect_ledger_matches_threads();
    }
    // Density 100 us / 1.5 ms fits the 0.10 sporadic reservation; the
    // 240 us of work outlasts the budget, so the thread's tail release
    // feeds the ledger too.
    nk::Thread* s = sys.spawn_auto(
        "s" + std::to_string(wave), finite_worker(3, sim::micros(80)),
        rt::Constraints::sporadic(sim::micros(500), sim::micros(100),
                                  sim::millis(2)));
    sys.run_for(sim::millis(25));
    EXPECT_EQ(s->rt.completions, 1u) << "sporadic not admitted";
    expect_ledger_matches_threads();
  }
  sys.run_for(sim::millis(50));
  expect_ledger_matches_threads();

  EXPECT_EQ(sys.auditor().total_violations(), 0u);
  // The waves really churned the words: every periodic and sporadic commit
  // is one admission on its CPU.
  std::uint64_t admissions = 0;
  for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
    admissions += sys.sched(cpu).stats().admissions_ok;
  }
  EXPECT_GE(admissions, 12u);
}

}  // namespace
}  // namespace hrt
