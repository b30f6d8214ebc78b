// Integration and property tests across the whole stack:
//   * determinism: identical seeds give identical simulations, and three
//     full-kernel scenarios match golden fingerprints,
//   * hard invariant: admitted (feasible) constraints never miss, across a
//     parameter sweep and under SMI storms and device-interrupt load,
//   * isolation: RT timing is independent of background load,
//   * group lockstep survives missing time,
//   * full-machine sanity at 256 CPUs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bsp/bsp.hpp"
#include "group/group_admission.hpp"

namespace hrt {
namespace {

nk::Thread* spawn_periodic(System& sys, std::uint32_t cpu, sim::Nanos period,
                           sim::Nanos slice,
                           sim::Nanos phase = sim::millis(1)) {
  auto b = std::make_unique<nk::FnBehavior>(
      [=](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(
              rt::Constraints::periodic(phase, period, slice));
        }
        return nk::Action::compute(period / 7);
      });
  return sys.spawn("p", std::move(b), cpu, 10);
}

// ---------- Determinism ----------

TEST(Determinism, SameSeedSameTrajectory) {
  auto run = [](std::uint64_t seed) {
    System::Options o;
    o.spec = hw::MachineSpec::phi_small(4);
    o.seed = seed;
    System sys(std::move(o));
    sys.boot();
    nk::Thread* t = spawn_periodic(sys, 1, sim::micros(100), sim::micros(40));
    sys.run_for(sim::millis(50));
    return std::tuple{t->rt.arrivals, t->rt.misses, t->total_cpu_ns,
                      sys.engine().events_executed(),
                      sys.machine().smi().stats().count};
  };
  EXPECT_EQ(run(12345), run(12345));
  EXPECT_NE(std::get<3>(run(1)), std::get<3>(run(2)));
}

// ---------- Golden determinism fingerprints ----------
//
// 64-bit FNV-1a over a full-kernel run's simulated outcomes: the sim::Trace
// bytes, events executed, end time and per-thread arrivals / completions /
// misses / CPU ns.  The constants pin the engine's exact (when, band, seq)
// execution order; any change to them is a change in simulated behaviour.

class Fnv1a {
 public:
  void add_bytes(const std::string& s) {
    for (const unsigned char c : s) mix(c);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix((v >> (8 * i)) & 0xffu);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t kernel_fingerprint(System& sys,
                                 const std::vector<nk::Thread*>& threads) {
  std::ostringstream trace;
  for (const auto& r : sys.machine().trace().records()) {
    trace << r.time << '|' << r.cpu << '|' << static_cast<int>(r.kind) << '|'
          << r.value << '\n';
  }
  Fnv1a h;
  h.add_bytes(trace.str());
  h.add(sys.engine().events_executed());
  h.add(static_cast<std::uint64_t>(sys.engine().now()));
  for (const nk::Thread* t : threads) {
    h.add(t->rt.arrivals);
    h.add(t->rt.completions);
    h.add(t->rt.misses);
    h.add(static_cast<std::uint64_t>(t->total_cpu_ns));
  }
  return h.value();
}

std::unique_ptr<nk::FnBehavior> rt_worker(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

// fig06-style miss-rate cell: phi_small machine, periodic RT workers with
// distinct periods/slices (one infeasible mix), SMIs enabled.
std::uint64_t run_fig06_style() {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.seed = 1234;
  o.sched.admission_enabled = false;
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  std::vector<nk::Thread*> threads;
  threads.push_back(sys.spawn(
      "a",
      rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(450),
                                          sim::micros(100))),
      1));
  threads.push_back(sys.spawn(
      "b",
      rt_worker(rt::Constraints::periodic(sim::micros(500), sim::micros(250),
                                          sim::micros(50))),
      2));
  threads.push_back(sys.spawn(
      "c",
      rt_worker(rt::Constraints::periodic(sim::millis(2), sim::millis(1),
                                          sim::micros(200))),
      3));
  sys.run_for(sim::millis(50));
  EXPECT_FALSE(sys.machine().trace().records().empty());
  return kernel_fingerprint(sys, threads);
}

// fig12-style group sync: a hard real-time group spanning CPUs, admitted
// through the full group protocol, generating cross-CPU kick IPIs.
std::uint64_t run_fig12_style() {
  constexpr std::uint32_t kMembers = 4;
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(kMembers + 2);
  o.seed = 99;
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  grp::ThreadGroup* group = sys.groups().create("sync", kMembers);
  const sim::Nanos phase = sim::millis(2) + kMembers * sim::micros(60);
  std::vector<nk::Thread*> threads;
  for (std::uint32_t r = 0; r < kMembers; ++r) {
    auto inner = std::make_unique<nk::BusyLoopBehavior>(sim::micros(20));
    auto b = std::make_unique<grp::GroupAdmitThenBehavior>(
        *group,
        rt::Constraints::periodic(phase, sim::micros(100), sim::micros(50)),
        std::move(inner));
    threads.push_back(sys.spawn(std::string("s") + std::to_string(r),
                                std::move(b), 1 + r));
  }
  sys.run_for(sim::millis(30));
  EXPECT_FALSE(sys.machine().trace().records().empty());
  return kernel_fingerprint(sys, threads);
}

// fig15/16-style BSP cell: a hard real-time group of 8 threads in lock-step
// with the barrier on.  The members' compute, write and barrier steps end at
// shared timestamps, so many wheel slots hold a gang of 8 or more same-time
// events scheduled in (when, band) order; the fig06/fig12 runs above drain
// no slot that large in order.
std::uint64_t run_bsp_style() {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(9);
  o.seed = 2018;
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  bsp::BspConfig cfg;
  cfg.P = 8;
  cfg.NE = 512;
  cfg.NC = 8;
  cfg.NW = 8;
  cfg.N = 100;
  cfg.mode = bsp::Mode::kGroupRt;
  cfg.barrier = true;
  cfg.period = sim::micros(200);
  cfg.slice = sim::micros(160);
  const sim::Nanos t0 = sys.engine().now();
  const bsp::BspResult res = bsp::run_bsp(sys, cfg);
  EXPECT_TRUE(res.admission_ok);
  EXPECT_TRUE(res.all_done);
  EXPECT_GT(res.barrier_rounds, 0u);
  const grp::ThreadGroup* group =
      sys.groups().find("bsp-" + std::to_string(t0));
  if (group == nullptr) {
    ADD_FAILURE() << "bsp group not found";
    return 0;
  }
  EXPECT_EQ(group->members().size(), cfg.P);
  return kernel_fingerprint(sys, group->members());
}

/// Churn thread: one action of `jobs` - 1/2 slices of work, then exit in
/// the middle of the last job.
std::unique_ptr<nk::FnBehavior> finite(std::uint64_t jobs, sim::Nanos chunk) {
  return std::make_unique<nk::FnBehavior>(
      [jobs, chunk](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::compute(static_cast<sim::Nanos>(2 * jobs - 1) *
                                     chunk / 2);
        }
        return nk::Action::exit();
      });
}

// admit_churn-style operator run, the one golden that runs placement:
// telemetry with an SLO, audits in accumulate mode and sim::Trace on, as
// perfbench's admit_churn_phi256 configures them.  Long-lived threads fill
// CPUs 1-6; each wave makes a place_batch dry run (some with specs that fit
// no CPU, so the no-fit fallback scans run), a spawn_batch and a spawn_auto
// (every fourth fits no CPU: make_room, then a give-up), and now and then a
// spawn_split.  Churn threads exit after a few jobs, and every exit runs
// rebalance_once at the default threshold.  The hash covers each placement
// decision and the placement and rebalancer stats besides the kernel run.
std::uint64_t run_churn_style() {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(32);
  o.seed = 7;
  o.audit.enabled = true;  // accumulate mode; FORCE builds throw instead
  o.telemetry.enabled = true;
  telemetry::SloSpec slo;
  slo.name = "longlived";
  slo.thread_match = "ll.";
  slo.window_ns = sim::millis(10);
  o.telemetry.slos.push_back(slo);
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();

  sim::Rng gen(20181);
  const sim::Nanos taus[] = {sim::micros(200), sim::micros(500),
                             sim::millis(1)};
  std::uint64_t made = 0;
  auto churn_spec = [&]() {
    const sim::Nanos tau = taus[made++ % 3];
    const double u = 0.08 + 0.22 * gen.next_double();
    return rt::Constraints::periodic(gen.uniform(sim::micros(50),
                                                 sim::micros(300)),
                                     tau, static_cast<sim::Nanos>(tau * u));
  };
  Fnv1a h;
  auto add_cpus = [&h](const std::vector<std::uint32_t>& cpus) {
    h.add(cpus.size());
    for (const std::uint32_t c : cpus) h.add(c);
  };

  std::vector<nk::Thread*> threads;
  for (std::uint32_t cpu = 1; cpu <= 6; ++cpu) {
    for (int k = 0; k < 3; ++k) {
      const sim::Nanos tau = taus[k];
      threads.push_back(sys.spawn(
          "ll." + std::to_string(cpu) + "." + std::to_string(k),
          rt_worker(rt::Constraints::periodic(sim::millis(1), tau,
                                              tau * 24 / 100)),
          cpu));
    }
  }
  sys.run_for(sim::micros(500));

  std::uint64_t id = 0;
  for (int w = 0; w < 24; ++w) {
    std::vector<rt::Constraints> dry;
    for (int i = 0; i < 24; ++i) dry.push_back(churn_spec());
    if (w % 4 == 1) {
      dry.push_back(rt::Constraints::periodic(0, sim::millis(1),
                                              sim::micros(900)));
      dry.push_back(rt::Constraints::periodic(0, 0, sim::micros(10)));
    }
    if (w % 3 == 2) dry.push_back(rt::Constraints::aperiodic());
    add_cpus(sys.placement().place_batch(dry));

    std::vector<System::SpawnSpec> batch;
    for (int i = 0; i < 8; ++i) {
      System::SpawnSpec sp;
      sp.name = "b." + std::to_string(id++);
      sp.constraints = churn_spec();
      sp.behavior = finite(static_cast<std::uint64_t>(gen.uniform(2, 5)),
                           sp.constraints.slice);
      batch.push_back(std::move(sp));
    }
    const System::BatchSpawnResult res = sys.spawn_batch(std::move(batch));
    h.add(res.ok ? 1 : 0);
    add_cpus(res.cpus);
    threads.insert(threads.end(), res.threads.begin(), res.threads.end());

    rt::Constraints c = churn_spec();
    if (w % 4 == 0) {
      c = rt::Constraints::periodic(c.phase, c.period, c.period * 85 / 100);
    }
    nk::Thread* a = sys.spawn_auto(
        "a." + std::to_string(id++),
        finite(static_cast<std::uint64_t>(gen.uniform(2, 5)), c.slice), c);
    h.add(a->cpu);
    threads.push_back(a);

    if (w % 6 == 3) {
      const double u = 0.82 + 0.16 * gen.next_double();
      const std::uint64_t jobs = static_cast<std::uint64_t>(gen.uniform(2, 5));
      const auto chunks = sys.spawn_split(
          "s." + std::to_string(id++),
          rt::Constraints::periodic(sim::micros(200), sim::millis(1),
                                    static_cast<sim::Nanos>(sim::millis(1) * u)),
          [&](std::uint32_t) { return finite(jobs, sim::micros(400)); });
      h.add(chunks.size());
      for (const nk::Thread* t : chunks) h.add(t->cpu);
      threads.insert(threads.end(), chunks.begin(), chunks.end());
    }
    sys.run_for(sim::micros(300));
  }
  sys.run_for(sim::millis(5));

  const global::GlobalScheduler::Stats& gs = sys.placement().stats();
  for (const std::uint64_t v :
       {gs.auto_placements, gs.fallback_placements, gs.split_plans,
        gs.split_chunks, gs.admit_give_ups, gs.batch_placements,
        gs.batch_specs}) {
    h.add(v);
  }
  const global::Rebalancer::Stats& rs = sys.placement().rebalancer().stats();
  for (const std::uint64_t v :
       {rs.exit_rebalances, rs.migrations_proposed, rs.make_room_calls,
        rs.make_room_migrations, rs.relocations}) {
    h.add(v);
  }
  EXPECT_GT(gs.admit_give_ups, 0u);
  EXPECT_GT(rs.make_room_calls, 0u);
  EXPECT_GT(rs.migrations_proposed, 0u);
  h.add(kernel_fingerprint(sys, threads));
  return h.value();
}

TEST(DeterminismFingerprint, Fig06StyleMatchesGolden) {
  const std::uint64_t fp = run_fig06_style();
  EXPECT_EQ(fp, 0x768c1c30aca0ea49ULL) << std::hex << "got 0x" << fp;
  EXPECT_EQ(fp, run_fig06_style()) << "two runs differ";
}

TEST(DeterminismFingerprint, Fig12StyleMatchesGolden) {
  const std::uint64_t fp = run_fig12_style();
  EXPECT_EQ(fp, 0x02dfec70e0cf6bc4ULL) << std::hex << "got 0x" << fp;
  EXPECT_EQ(fp, run_fig12_style()) << "two runs differ";
}

TEST(DeterminismFingerprint, BspStyleMatchesGolden) {
  const std::uint64_t fp = run_bsp_style();
  EXPECT_EQ(fp, 0x1fa7cae2a67fc539ULL) << std::hex << "got 0x" << fp;
  EXPECT_EQ(fp, run_bsp_style()) << "two runs differ";
}

// Re-pinned from 0x05e34e398189ae72 when the rebalancer's destinations
// started following placement's CPU ranking: at 3.496 ms an exit rebalance
// moved ll.2.0 (0.24) from CPU 2 to the idle interrupt-laden CPU 0; it now
// goes to interrupt-free CPU 10, and the run diverges from there.
TEST(DeterminismFingerprint, ChurnStyleMatchesGolden) {
  const std::uint64_t fp = run_churn_style();
  EXPECT_EQ(fp, 0x729e2bcbba48d29bULL) << std::hex << "got 0x" << fp;
  EXPECT_EQ(fp, run_churn_style()) << "two runs differ";
}

// ---------- The hard real-time invariant ----------

struct FeasiblePoint {
  sim::Nanos period;
  int slice_pct;
};

// Names the ctest cases (e.g. ".../period1000000ns_slice70pct"); without it
// gtest prints the struct's raw bytes, uninitialized padding included.
void PrintTo(const FeasiblePoint& p, std::ostream* os) {
  *os << "period" << p.period << "ns_slice" << p.slice_pct << "pct";
}

class FeasibleSweep : public ::testing::TestWithParam<FeasiblePoint> {};

TEST_P(FeasibleSweep, AdmittedConstraintsNeverMissOnPhi) {
  const auto p = GetParam();
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  System sys(std::move(o));
  sys.boot();
  const sim::Nanos slice = p.period * p.slice_pct / 100;
  nk::Thread* t = spawn_periodic(sys, 1, p.period, slice);
  sys.run_for(sim::millis(200));
  ASSERT_TRUE(t->last_admit_ok) << "sweep point should be admissible";
  EXPECT_GT(t->rt.arrivals, 100u);
  EXPECT_EQ(t->rt.misses, 0u)
      << "admitted constraint missed: tau=" << p.period
      << " sigma%=" << p.slice_pct;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FeasibleSweep,
    ::testing::Values(FeasiblePoint{sim::millis(1), 70},
                      FeasiblePoint{sim::millis(1), 30},
                      FeasiblePoint{sim::micros(500), 60},
                      FeasiblePoint{sim::micros(200), 50},
                      FeasiblePoint{sim::micros(100), 50},
                      FeasiblePoint{sim::micros(100), 20},
                      FeasiblePoint{sim::micros(50), 30},
                      FeasiblePoint{sim::micros(50), 10}));

TEST(Invariant, MultipleRtThreadsAllMeetDeadlines) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  System sys(std::move(o));
  sys.boot();
  nk::Thread* a = spawn_periodic(sys, 1, sim::micros(200), sim::micros(40));
  nk::Thread* b = spawn_periodic(sys, 1, sim::micros(500), sim::micros(120));
  nk::Thread* c = spawn_periodic(sys, 1, sim::millis(2), sim::micros(500));
  sys.run_for(sim::millis(300));
  for (nk::Thread* t : {a, b, c}) {
    ASSERT_TRUE(t->last_admit_ok);
    EXPECT_EQ(t->rt.misses, 0u);
  }
}

TEST(Invariant, SurvivesExtremeSmiStorm) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  // Brutal: ~25 us stolen every ~300 us (~8% of the machine).
  o.spec.smi.mean_interval_ns = sim::micros(300);
  o.spec.smi.min_duration_ns = sim::micros(15);
  o.spec.smi.mean_duration_ns = sim::micros(25);
  o.spec.smi.max_duration_ns = sim::micros(40);
  System sys(std::move(o));
  sys.boot();
  // Modest utilization leaves headroom to absorb the storm.
  nk::Thread* t = spawn_periodic(sys, 1, sim::millis(1), sim::micros(300));
  sys.run_for(sim::millis(500));
  ASSERT_TRUE(t->last_admit_ok);
  EXPECT_GT(sys.machine().smi().stats().count, 1000u);
  // Eager scheduling keeps the miss rate tiny even under this storm.
  EXPECT_LT(static_cast<double>(t->rt.misses),
            0.01 * static_cast<double>(t->rt.arrivals) + 1.0);
}

// ---------- Isolation ----------

TEST(Isolation, RtTimingIndependentOfBackgroundLoad) {
  auto measure = [](int background_threads) {
    System::Options o;
    o.spec = hw::MachineSpec::phi_small(4);
    o.seed = 77;
    System sys(std::move(o));
    sys.boot();
    nk::Thread* t =
        spawn_periodic(sys, 1, sim::micros(200), sim::micros(60));
    for (int i = 0; i < background_threads; ++i) {
      sys.spawn("bg" + std::to_string(i),
                std::make_unique<nk::BusyLoopBehavior>(sim::micros(70)), 1);
    }
    sys.run_for(sim::millis(200));
    return std::tuple{t->rt.misses, t->total_cpu_ns, t->rt.completions};
  };
  const auto alone = measure(0);
  const auto crowded = measure(6);
  EXPECT_EQ(std::get<0>(alone), 0u);
  EXPECT_EQ(std::get<0>(crowded), 0u);
  // Same CPU share delivered regardless of competition (within jitter).
  EXPECT_NEAR(static_cast<double>(std::get<1>(alone)),
              static_cast<double>(std::get<1>(crowded)),
              0.02 * static_cast<double>(std::get<1>(alone)));
}

TEST(Isolation, AperiodicWorkFillsExactlyTheLeftover) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.spec.smi.enabled = false;
  System sys(std::move(o));
  sys.boot();
  spawn_periodic(sys, 1, sim::micros(200), sim::micros(120));  // 60%
  nk::Thread* bg = sys.spawn(
      "bg", std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), 1);
  sys.run_for(sim::millis(200));
  sys.sync_accounting();
  // Background gets roughly the remaining 40% minus overheads.
  const double share = static_cast<double>(bg->total_cpu_ns) / 200e6;
  EXPECT_GT(share, 0.30);
  EXPECT_LT(share, 0.42);
}

// ---------- Groups under fire ----------

TEST(GroupsUnderFire, LockstepSurvivesSmis) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(10);
  o.spec.smi.mean_interval_ns = sim::millis(2);
  o.spec.smi.mean_duration_ns = sim::micros(12);
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  System sys(std::move(o));
  sys.boot();
  bsp::BspConfig cfg;
  cfg.P = 8;
  cfg.NE = 128;
  cfg.NC = 4;
  cfg.NW = 8;
  cfg.N = 150;
  cfg.barrier = false;
  cfg.mode = bsp::Mode::kGroupRt;
  cfg.period = sim::micros(500);
  cfg.slice = sim::micros(350);
  auto r = bsp::run_bsp(sys, cfg);
  EXPECT_TRUE(r.admission_ok);
  EXPECT_TRUE(r.all_done);
  // SMIs are machine-wide (all CPUs freeze together), so they do not break
  // lockstep; the skew bound holds.
  EXPECT_LE(r.max_write_skew, 2u);
  EXPECT_GT(sys.machine().smi().stats().count, 0u);
}

TEST(GroupsUnderFire, SequentialGroupsOnSameSystem) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(10);
  o.spec.smi.enabled = false;
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  System sys(std::move(o));
  sys.boot();
  for (int round = 0; round < 3; ++round) {
    bsp::BspConfig cfg;
    cfg.P = 8;
    cfg.NE = 64;
    cfg.NC = 4;
    cfg.NW = 4;
    cfg.N = 30;
    cfg.mode = bsp::Mode::kGroupRt;
    cfg.period = sim::micros(300);
    cfg.slice = sim::micros(200);
    auto r = bsp::run_bsp(sys, cfg);
    EXPECT_TRUE(r.admission_ok) << "round " << round;
    EXPECT_TRUE(r.all_done) << "round " << round;
  }
  // Utilization fully released between rounds.
  for (std::uint32_t c = 1; c <= 8; ++c) {
    EXPECT_NEAR(sys.sched(c).admitted_utilization(), 0.0, 1e-9);
  }
}

// ---------- Full machine ----------

TEST(FullMachine, Boot256AndRunMixedLoad) {
  System sys;  // full Phi, SMIs on
  sys.boot();
  std::vector<nk::Thread*> rts;
  for (std::uint32_t c = 1; c <= 64; c += 4) {
    rts.push_back(
        spawn_periodic(sys, c, sim::micros(100) * (1 + c % 5),
                       sim::micros(30) * (1 + c % 5)));
  }
  for (std::uint32_t c = 2; c <= 32; c += 8) {
    sys.spawn("bg" + std::to_string(c),
              std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), c);
  }
  sys.run_for(sim::millis(100));
  for (nk::Thread* t : rts) {
    ASSERT_TRUE(t->last_admit_ok);
    EXPECT_GT(t->rt.arrivals, 100u);
    EXPECT_EQ(t->rt.misses, 0u);
  }
}

TEST(FullMachine, IdleMachineIsQuiet) {
  // Tickless design: an idle 256-CPU machine executes almost no events.
  System::Options o;
  o.spec.smi.enabled = false;
  System sys(std::move(o));
  sys.boot();
  const auto before = sys.engine().events_executed();
  sys.run_for(sim::seconds(1));
  EXPECT_LT(sys.engine().events_executed() - before, 100u);
}

// ---------- R415 cross-machine ----------

TEST(R415, FinerConstraintsFeasible) {
  System::Options o;
  o.spec = hw::MachineSpec::r415();
  // A 10 us period leaves only ~4 us of slack; an SMI stealing 8-25 us
  // cannot be absorbed at that granularity on *any* scheduler (section 3.6
  // bounds the damage, it cannot erase it), so isolate quantization from
  // missing time here.
  o.spec.smi.enabled = false;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* t = spawn_periodic(sys, 1, sim::micros(10), sim::micros(3));
  sys.run_for(sim::millis(100));
  ASSERT_TRUE(t->last_admit_ok);
  EXPECT_GT(t->rt.arrivals, 5000u);
  EXPECT_EQ(t->rt.misses, 0u);  // infeasible on the Phi, fine here
}

}  // namespace
}  // namespace hrt
