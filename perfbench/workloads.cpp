#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/replay.hpp"
#include "bsp/bsp.hpp"
#include "sim/rng.hpp"
#include "telemetry/export.hpp"

namespace perfbench {

using namespace hrt;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

/// Host time of a phase ("setup", "run", "check"), accumulated into `acc`
/// whether or not the tracer records it.
class Phase {
 public:
  Phase(Tracer& tr, const char* name, double& acc)
      : acc_(acc), scope_(tr, name, /*rss=*/true), t0_(now_s()) {}
  ~Phase() { acc_ += now_s() - t0_; }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  double& acc_;
  Scope scope_;
  double t0_;
};

std::unique_ptr<System> construct(Tracer& tr, System::Options o) {
  tr.set_system(nullptr);
  Scope s(tr, "System::System", /*rss=*/true);
  auto sys = std::make_unique<System>(std::move(o));
  tr.set_system(sys.get());
  return sys;
}

void boot(Tracer& tr, System& sys) {
  Scope s(tr, "System::boot", /*rss=*/true);
  sys.boot();
}

nk::Thread* spawn(Tracer& tr, System& sys, std::string name,
                  std::unique_ptr<nk::Behavior> b, std::uint32_t cpu) {
  Scope s(tr, "System::spawn");
  return sys.spawn(std::move(name), std::move(b), cpu);
}

void run_for(Tracer& tr, System& sys, sim::Nanos d) {
  Scope s(tr, "run_for", /*rss=*/true);
  sys.run_for(d);
}

/// Periodic worker that requests its own constraints, then always has work:
/// the scheduler's budget enforcement does the slicing.
std::unique_ptr<nk::Behavior> self_admitting(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

/// Inner behavior of a churn thread: one action of `jobs` - 1/2 slices of
/// work, then exit in the middle of the last job.
std::unique_ptr<nk::Behavior> finite(std::uint64_t jobs, sim::Nanos chunk) {
  return std::make_unique<nk::FnBehavior>(
      [jobs, chunk](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::compute(static_cast<sim::Nanos>(2 * jobs - 1) *
                                     chunk / 2);
        }
        return nk::Action::exit();
      });
}

}  // namespace

Inputs derive_inputs(std::uint64_t seed, bool smoke) {
  Inputs in;
  in.sys_seed = splitmix(seed);
  in.gen_seed = splitmix(seed ^ 0x5eed5eed5eed5eedULL);
  in.smoke = smoke;
  return in;
}

// ---------------------------------------------------------------------------
// missrate_phi256: Fig. 6's (tau, sigma) grid on one 256-CPU machine, one
// periodic thread per CPU, admission off.  Each of the 63 cells gets four
// CPUs (placement shuffled by the generator); CPUs 253-255 run the fixed
// 100 us / 50 % cell, so the mix is the same for every seed.
// ---------------------------------------------------------------------------
IterResult run_missrate_phi256(const Inputs& in, Tracer& tr) {
  const std::vector<sim::Nanos> periods = {
      sim::micros(1000), sim::micros(100), sim::micros(50), sim::micros(40),
      sim::micros(30),   sim::micros(20),  sim::micros(10)};
  constexpr int kPcts = 9;  // 10 % .. 90 %
  constexpr std::uint32_t kPerCell = 4;
  const std::uint32_t cells = static_cast<std::uint32_t>(periods.size()) * kPcts;
  const sim::Nanos slice = in.smoke ? sim::millis(2) : sim::millis(4);
  const int slices = in.smoke ? 3 : 15;

  sim::Rng gen(in.gen_seed);
  std::vector<std::uint32_t> cell_of(256, 0);
  {
    std::vector<std::uint32_t> deck;
    for (std::uint32_t c = 0; c < cells; ++c) {
      for (std::uint32_t k = 0; k < kPerCell; ++k) deck.push_back(c);
    }
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[static_cast<std::size_t>(
                                 gen.uniform(0, static_cast<std::int64_t>(i - 1)))]);
    }
    for (std::size_t i = 0; i < deck.size(); ++i) cell_of[i + 1] = deck[i];
    const std::uint32_t fixed = 1 * kPcts + 4;  // 100 us, 50 %
    for (std::uint32_t cpu = 1 + cells * kPerCell; cpu < 256; ++cpu) {
      cell_of[cpu] = fixed;
    }
  }
  auto period_of = [&](std::uint32_t cell) { return periods[cell / kPcts]; };
  auto pct_of = [](std::uint32_t cell) {
    return 10 * (static_cast<int>(cell % kPcts) + 1);
  };

  IterResult r;
  r.systems = 1;
  std::unique_ptr<System> sys;
  std::vector<nk::Thread*> threads(256, nullptr);
  {
    Phase p(tr, "setup", r.setup_s);
    System::Options o;
    o.seed = in.sys_seed;
    o.sched.admission_enabled = false;  // infeasible cells stay observable
    sys = construct(tr, std::move(o));
    boot(tr, *sys);
    for (std::uint32_t cpu = 1; cpu < 256; ++cpu) {
      const sim::Nanos tau = period_of(cell_of[cpu]);
      const sim::Nanos phase = gen.uniform(sim::millis(1), sim::millis(2));
      threads[cpu] = spawn(
          tr, *sys, "cell" + std::to_string(cell_of[cpu]),
          self_admitting(rt::Constraints::periodic(
              phase, tau, tau * pct_of(cell_of[cpu]) / 100)),
          cpu);
    }
  }
  const sim::Nanos t0 = sys->engine().now();
  {
    Phase p(tr, "run", r.run_s);
    for (int i = 0; i < slices; ++i) run_for(tr, *sys, slice);
  }
  {
    Phase p(tr, "check", r.check_s);
    r.sim_ns = sys->engine().now() - t0;
    r.events = sys->engine().events_executed();
    std::vector<std::uint64_t> cell_arr(cells, 0), cell_miss(cells, 0);
    Fingerprint fp;
    fp.add(r.events);
    for (std::uint32_t cpu = 1; cpu < 256; ++cpu) {
      const nk::Thread* t = threads[cpu];
      cell_arr[cell_of[cpu]] += t->rt.arrivals;
      cell_miss[cell_of[cpu]] += t->rt.misses;
      r.windows += t->rt.arrivals;
      r.misses += t->rt.misses;
      ++r.admit_requested;
      if (t->is_realtime()) ++r.admit_accepted;
      fp.add(t->rt.arrivals);
      fp.add(t->rt.misses);
      if (t->rt.arrivals == 0) {
        r.failures.push_back("missrate: thread on cpu " + std::to_string(cpu) +
                             " saw no arrivals");
      }
    }
    // Fig. 6 shape: the feasible region misses ~0 %, the 10 us period with
    // fat slices misses ~100 %.
    bool feasible_zero = true;
    bool infeasible_high = false;
    for (std::uint32_t c = 0; c < cells; ++c) {
      const double rate =
          cell_arr[c] ? static_cast<double>(cell_miss[c]) / cell_arr[c] : 1.0;
      if (period_of(c) >= sim::micros(100) && pct_of(c) <= 70 && rate > 0.01) {
        feasible_zero = false;
      }
      if (period_of(c) == sim::micros(10) && pct_of(c) >= 60 && rate > 0.9) {
        infeasible_high = true;
      }
    }
    if (!feasible_zero) {
      r.failures.push_back(
          "missrate: feasible region (tau >= 100us, sigma <= 70%) misses");
    }
    if (!infeasible_high) {
      r.failures.push_back(
          "missrate: 10us with fat slices does not miss ~100%");
    }
    fp.add(r.windows);
    fp.add(r.misses);
    r.fingerprint = fp.value();
  }
  tr.set_system(nullptr);
  return r;
}

// ---------------------------------------------------------------------------
// bsp_group_phi255: Figs. 15/16 — run_bsp cells at P = 255 in kGroupRt, each
// (tau, sigma) cell once with and once without the barrier, each run on a
// fresh System (255-member group admission + phase correction every time).
// ---------------------------------------------------------------------------
IterResult run_bsp_group_phi255(const Inputs& in, Tracer& tr) {
  struct Cell {
    sim::Nanos period;
    int pct;
  };
  std::vector<Cell> grid;
  for (const sim::Nanos tau : {sim::micros(500), sim::micros(1000)}) {
    for (const int pct : {50, 90}) grid.push_back({tau, pct});
  }
  sim::Rng gen(in.gen_seed);
  for (std::size_t i = grid.size(); i > 1; --i) {
    std::swap(grid[i - 1], grid[static_cast<std::size_t>(
                               gen.uniform(0, static_cast<std::int64_t>(i - 1)))]);
  }
  if (in.smoke) grid.resize(1);

  bsp::BspConfig base;
  base.P = 255;
  base.NE = 512;  // finest granularity (Fig. 16): ~19 us compute per iteration
  base.NC = 8;
  base.NW = 16;
  base.N = in.smoke ? 20 : 200;
  base.mode = bsp::Mode::kGroupRt;
  base.phase = sim::millis(3) + base.P * sim::micros(80);

  IterResult r;
  Fingerprint fp;
  double speedup_sum = 0.0;
  for (std::size_t ci = 0; ci < grid.size(); ++ci) {
    const Cell& cell = grid[ci];
    sim::Nanos makespan[2] = {0, 0};
    for (const bool barrier : {true, false}) {
      std::unique_ptr<System> sys;
      {
        Phase p(tr, "setup", r.setup_s);
        System::Options o;
        o.seed = splitmix(in.sys_seed + ci);
        // The sweep reaches 90 % utilization; shrink the reservations so the
        // admission test has that much to give (bench/bsp_common.hpp).
        o.sched.sporadic_reservation = 0.04;
        o.sched.aperiodic_reservation = 0.05;
        sys = construct(tr, std::move(o));
        boot(tr, *sys);
      }
      bsp::BspConfig cfg = base;
      cfg.barrier = barrier;
      cfg.period = cell.period;
      cfg.slice = cell.period * cell.pct / 100;
      const sim::Nanos t0 = sys->engine().now();
      bsp::BspResult res;
      {
        Phase p(tr, "run", r.run_s);
        Scope s(tr, barrier ? "bsp::run_bsp(barrier)" : "bsp::run_bsp(free)",
                /*rss=*/true);
        res = bsp::run_bsp(*sys, cfg);
      }
      {
        Phase p(tr, "check", r.check_s);
        const std::string where =
            fmt("bsp: tau=%.0fus sigma=%.0f%% barrier=%.0f",
                static_cast<double>(cell.period) / 1e3, cell.pct, barrier);
        ++r.systems;
        r.sim_ns += sys->engine().now() - t0;
        r.events += sys->engine().events_executed();
        r.barrier_rounds += res.barrier_rounds;
        r.admit_requested += cfg.P;
        if (res.admission_ok) r.admit_accepted += cfg.P;
        const grp::ThreadGroup* g =
            sys->groups().find("bsp-" + std::to_string(t0));
        if (g == nullptr || g->members().size() != cfg.P) {
          r.failures.push_back(where + ": group not found");
        } else {
          for (const nk::Thread* t : g->members()) {
            r.windows += t->rt.arrivals;
            r.misses += t->rt.misses;
            fp.add(t->rt.arrivals);
            fp.add(t->rt.misses);
          }
        }
        if (!res.admission_ok || !res.all_done) {
          r.failures.push_back(where + ": not admitted or not completed");
        }
        if (res.max_write_skew > (barrier ? 1u : 2u)) {
          r.failures.push_back(where + ": write skew " +
                               std::to_string(res.max_write_skew));
        }
        makespan[barrier ? 0 : 1] = res.makespan;
        fp.add(static_cast<std::uint64_t>(res.makespan));
        fp.add(res.barrier_rounds);
        fp.add(res.max_write_skew);
        fp.add(sys->engine().events_executed());
      }
      tr.set_system(nullptr);
    }
    if (makespan[1] >= makespan[0]) {
      r.failures.push_back(fmt(
          "bsp: tau=%.0fus sigma=%.0f%%: barrier-free makespan not below "
          "the barrier makespan",
          static_cast<double>(cell.period) / 1e3, cell.pct));
    }
    if (makespan[1] > 0) {
      speedup_sum += static_cast<double>(makespan[0]) /
                     static_cast<double>(makespan[1]);
    }
  }
  r.bsp_speedup = speedup_sum / static_cast<double>(grid.size());
  fp.add(r.windows);
  fp.add(r.misses);
  r.fingerprint = fp.value();
  return r;
}

// ---------------------------------------------------------------------------
// admit_churn_phi256: the operator configuration (telemetry + SLO, audit in
// accumulate mode, sim::Trace on).  Long-lived periodic threads fill CPUs
// 1-32 beyond what any churn spec fits; on the rest, waves of reads
// (place_batch dry runs, probe_admission) run beside writes (spawn_batch,
// spawn_auto, spawn_split), and churn threads exit after a few jobs.  A
// repeat is six independent cells (fresh System each): a scheduler livelock
// (README.md, "Findings") hits about one repeat in three and can cost a cell
// its remaining time, so shorter cells keep the cost steady across seeds.
// ---------------------------------------------------------------------------
namespace {

constexpr std::uint32_t kLongCpus = 32;
constexpr int kLongPerCpu = 3;
// A healthy churn CPU takes at most ~4 timer passes per job; a livelocked
// one takes one per handler span (~3.5 us) while the livelock lasts.
constexpr std::uint64_t kStormPassesPerJob = 10;
// The known livelock hits 0-3 CPUs of a repeat (mean 0.5 over 100 seeds);
// more means a change made it more common.
constexpr std::uint64_t kMaxLivelockedCpus = 5;

void churn_cell(const Inputs& in, std::uint64_t cell, Tracer& tr,
                IterResult& r, Fingerprint& fp) {
  constexpr double kLongUtil = 0.74;  // capacity 0.79: no churn spec fits
  constexpr int kBatch = 16;
  const int waves = in.smoke ? 10 : 50;
  const sim::Nanos gap = sim::micros(200);
  const sim::Nanos tail = in.smoke ? sim::millis(2) : sim::millis(3);

  // Periods cycle through a fixed set so every seed has the same period
  // mix (the event rate follows it); the generator draws utilizations,
  // phases, job counts and target CPUs.
  sim::Rng gen(splitmix(in.gen_seed + cell));
  const sim::Nanos taus[] = {sim::micros(200), sim::micros(500),
                             sim::millis(1)};
  std::uint64_t specs_made = 0;
  auto churn_spec = [&]() {
    const sim::Nanos tau = taus[specs_made++ % 3];
    const double u = 0.08 + 0.22 * gen.next_double();
    return rt::Constraints::periodic(gen.uniform(sim::micros(50),
                                                 sim::micros(300)),
                                     tau, static_cast<sim::Nanos>(tau * u));
  };

  ++r.systems;
  std::unique_ptr<System> sys;
  std::vector<nk::Thread*> longlived;
  {
    Phase p(tr, "setup", r.setup_s);
    System::Options o;
    o.seed = splitmix(in.sys_seed + cell);
    o.audit.enabled = true;  // accumulate mode: violations are counted
    o.telemetry.enabled = true;
    telemetry::SloSpec slo;
    slo.name = "longlived";
    slo.thread_match = "ll.";
    slo.window_ns = sim::millis(10);
    o.telemetry.slos.push_back(slo);
    // Exit rebalancing runs but never moves the operator's pinned threads:
    // the largest committed gap (0.79) stays under this threshold.
    o.placement_config.rebalance_threshold = 0.8;
    sys = construct(tr, std::move(o));
    sys->machine().trace().enable();
    boot(tr, *sys);
    for (std::uint32_t cpu = 1; cpu <= kLongCpus; ++cpu) {
      double left = kLongUtil;
      for (int k = 0; k < kLongPerCpu; ++k) {
        const double u =
            k + 1 < kLongPerCpu ? 0.2 + 0.05 * gen.next_double() : left;
        left -= u;
        const sim::Nanos tau = taus[k];
        longlived.push_back(spawn(
            tr, *sys, "ll." + std::to_string(cpu) + "." + std::to_string(k),
            self_admitting(rt::Constraints::periodic(
                sim::millis(1), tau, static_cast<sim::Nanos>(tau * u))),
            cpu));
      }
    }
  }

  const sim::Nanos t0 = sys->engine().now();
  const std::uint64_t give_ups0 = sys->placement().stats().admit_give_ups;
  const std::uint32_t ncpus = sys->kernel().num_cpus();
  std::vector<std::uint64_t> timer0(ncpus);
  for (std::uint32_t cpu = 0; cpu < ncpus; ++cpu) {
    timer0[cpu] = sys->sched(cpu).stats().timer_passes;
  }
  std::uint64_t requested = 0;
  std::uint64_t rejected = 0;
  std::uint64_t id = 0;
  {
    Phase p(tr, "run", r.run_s);
    // The long-lived threads request admission at their first dispatch;
    // let that happen before the churn reads the ledger.
    run_for(tr, *sys, sim::micros(500));
    for (int w = 0; w < waves; ++w) {
      // Reads: a placement dry run and admission probes (a quarter of them
      // on full CPUs).
      {
        std::vector<rt::Constraints> specs;
        for (int i = 0; i < 32; ++i) specs.push_back(churn_spec());
        Scope s(tr, "place_batch");
        (void)sys->placement().place_batch(specs);
      }
      for (int i = 0; i < 16; ++i) {
        const std::uint32_t cpu = static_cast<std::uint32_t>(
            i % 4 == 0 ? gen.uniform(1, kLongCpus)
                       : gen.uniform(kLongCpus + 1, 255));
        const rt::Constraints c = churn_spec();
        Scope s(tr, "probe_admission");
        (void)sys->sched(cpu).probe_admission(c);
      }
      // Writes: an all-or-nothing batch, an auto-placed spawn, and now and
      // then an oversized spec split across CPUs.
      {
        std::vector<System::SpawnSpec> specs;
        for (int i = 0; i < kBatch; ++i) {
          System::SpawnSpec sp;
          sp.name = "b." + std::to_string(id++);
          sp.constraints = churn_spec();
          sp.behavior = finite(static_cast<std::uint64_t>(gen.uniform(2, 5)),
                               sp.constraints.slice);
          specs.push_back(std::move(sp));
        }
        requested += specs.size();
        Scope s(tr, "spawn_batch");
        const System::BatchSpawnResult res = sys->spawn_batch(std::move(specs));
        if (!res.ok) rejected += kBatch;
      }
      {
        rt::Constraints c = churn_spec();
        if (w % 8 == 0) {
          // Fits no CPU at all: the auto-admit protocol retries, asks the
          // rebalancer for room, and gives up.
          c = rt::Constraints::periodic(c.phase, c.period, c.period * 85 / 100);
        }
        ++requested;
        Scope s(tr, "spawn_auto");
        (void)sys->spawn_auto(
            "a." + std::to_string(id++),
            finite(static_cast<std::uint64_t>(gen.uniform(2, 5)), c.slice), c);
      }
      if (w % 8 == 4) {
        // Above one CPU's RT capacity (0.79), so it must be split.
        const double u = 0.82 + 0.16 * gen.next_double();
        const auto c = rt::Constraints::periodic(
            sim::micros(200), sim::millis(1),
            static_cast<sim::Nanos>(sim::millis(1) * u));
        const std::uint64_t jobs = static_cast<std::uint64_t>(gen.uniform(2, 5));
        Scope s(tr, "spawn_split");
        const auto chunks = sys->spawn_split(
            "s." + std::to_string(id++), c, [&](std::uint32_t) {
              return finite(jobs, sim::micros(400));
            });
        requested += std::max<std::size_t>(chunks.size(), 1);
        if (chunks.empty()) ++rejected;
      }
      run_for(tr, *sys, gap);
    }
    run_for(tr, *sys, tail);
  }

  {
    Phase p(tr, "check", r.check_s);
    const sim::Nanos now = sys->engine().now();
    r.sim_ns += now - t0;
    r.events += sys->engine().events_executed();
    rejected += sys->placement().stats().admit_give_ups - give_ups0;
    r.admit_requested += requested;
    r.admit_accepted += requested - rejected;
    fp.add(sys->engine().events_executed());
    fp.add(requested);
    fp.add(rejected);

    // EDF replay oracle over every long-lived CPU.
    const audit::ReplayConfig rcfg =
        audit::replay_config_for(sys->machine().spec());
    const std::uint64_t smis = sys->machine().smi().stats().count;
    for (std::uint32_t cpu = 1; cpu <= kLongCpus; ++cpu) {
      std::vector<audit::ReplayTask> tasks;
      std::vector<const nk::Thread*> mine;
      for (const nk::Thread* t : longlived) {
        if (t->cpu == cpu && t->is_realtime()) {
          tasks.push_back({t->id, t->constraints, t->rt.gamma});
          mine.push_back(t);
        }
      }
      audit::ReplayResult rr;
      {
        Scope s(tr, "audit::replay_edf");
        rr = audit::replay_edf(sys->machine().trace(), cpu, tasks, rcfg, now);
        for (const nk::Thread* t : mine) {
          audit::verify_stats(rr, t->id, t->rt.arrivals, t->rt.completions,
                              t->rt.misses, 2);
        }
      }
      r.replay_divergences += rr.divergences.size();
      if (mine.size() != static_cast<std::size_t>(kLongPerCpu)) {
        r.failures.push_back("churn: long-lived threads left cpu " +
                             std::to_string(cpu));
      }
    }
    for (const nk::Thread* t : longlived) {
      fp.add(t->rt.arrivals);
      fp.add(t->rt.misses);
      if (!t->is_realtime() || t->rt.arrivals == 0) {
        r.failures.push_back("churn: long-lived " + t->name + " not admitted");
      }
      // An SMI freezes every CPU once; each can cost a thread one deadline.
      if (t->rt.misses > smis) {
        r.failures.push_back("churn: long-lived " + t->name + " missed " +
                             std::to_string(t->rt.misses) + " deadlines with " +
                             std::to_string(smis) + " SMIs");
      }
    }
    std::string exported;
    {
      Scope s(tr, "write_metrics_json");
      std::ostringstream os;
      telemetry::write_metrics_json(os, sys->telemetry(), now);
      exported = os.str();
    }
    if (exported.find("hrt-metrics-v1") == std::string::npos) {
      r.failures.push_back("churn: metrics export lacks the schema tag");
    }
    const auto& metrics = sys->telemetry().metrics();
    for (std::uint32_t cpu = 0; cpu < metrics.num_cpus(); ++cpu) {
      r.windows += metrics.cpu(cpu).completions;
      r.misses += metrics.cpu(cpu).misses;
      fp.add(metrics.cpu(cpu).completions);
      fp.add(metrics.cpu(cpu).misses);
    }
    // Timer-pass livelock (README.md, "Findings"): a CPU whose timer passes
    // far outrun the jobs its threads released.
    for (std::uint32_t cpu = 0; cpu < ncpus; ++cpu) {
      const std::uint64_t passes =
          sys->sched(cpu).stats().timer_passes - timer0[cpu];
      const std::uint64_t jobs =
          metrics.cpu(cpu).completions + metrics.cpu(cpu).misses;
      if (passes > kStormPassesPerJob * (jobs + 1)) ++r.livelocked_cpus;
    }
    const std::uint64_t violations = sys->auditor().total_violations();
    if (violations != 0) {
      r.failures.push_back("churn: " + std::to_string(violations) +
                           " audit violations");
    }
    r.record_cost_ns += sys->telemetry().recorder().sampled_cost_ns().mean();
    fp.add(sys->machine().trace().records().size());
    fp.add(sys->telemetry().recorder().written());
    fp.add(violations);
  }
  tr.set_system(nullptr);
}

}  // namespace

IterResult run_admit_churn_phi256(const Inputs& in, Tracer& tr) {
  IterResult r;
  Fingerprint fp;
  const std::uint64_t cells = in.smoke ? 1 : 6;
  for (std::uint64_t cell = 0; cell < cells; ++cell) {
    churn_cell(in, cell, tr, r, fp);
  }
  r.record_cost_ns /= static_cast<double>(cells);
  if (r.replay_divergences != 0) {
    r.failures.push_back("churn: " + std::to_string(r.replay_divergences) +
                         " replay divergences");
  }
  if (2 * (r.admit_requested - r.admit_accepted) >= r.admit_requested) {
    r.failures.push_back("churn: rejects are not a minority");
  }
  if (r.livelocked_cpus > kMaxLivelockedCpus) {
    r.failures.push_back("churn: " + std::to_string(r.livelocked_cpus) +
                         " CPUs in a timer-pass livelock, more than the "
                         "known bug explains");
  }
  fp.add(r.replay_divergences);
  fp.add(r.livelocked_cpus);
  r.fingerprint = fp.value();
  return r;
}

Workload find_workload(const std::string& name) {
  if (name == "missrate_phi256") return &run_missrate_phi256;
  if (name == "bsp_group_phi255") return &run_bsp_group_phi255;
  if (name == "admit_churn_phi256") return &run_admit_churn_phi256;
  return nullptr;
}

}  // namespace perfbench
