// Placement ablation: pure partitioning policies (FFD/BFD/WFD/topology)
// versus semi-partitioned overflow splitting (src/global/placement.hpp).
//
// Phase A sweeps random heavy task sets (UUniFast, n tasks whose individual
// utilizations routinely exceed one CPU's capacity) over target utilizations
// and seeds, packing each set with every pure policy and with the
// semi-partitioned packer.  The fit test inside the packers is the real
// rt::edf_admissible, so a reported packing is exactly what per-CPU
// admission would accept.  Shape checks: every pure packing passes per-CPU
// admission when re-validated here; semi-partitioned admits >= the best
// pure policy in every cell and strictly more in at least one.
//
// Phase B executes sampled packings on a simulated 8-CPU r415: every placed
// task (or pipeline chunk) is spawned pinned to its assigned CPU with its
// packed constraints, and the run must show zero deadline misses.  One cell
// is additionally cross-checked with the offline EDF replay oracle
// (src/audit/replay.hpp) on all eight CPUs.
//
// Output: human-readable tables plus a JSON record (--json=PATH, default
// BENCH_placement.json); see docs/PERFORMANCE.md for the schema.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/replay.hpp"
#include "common.hpp"
#include "global/placement.hpp"
#include "rt/system.hpp"
#include "rt/taskset_gen.hpp"

namespace {

using namespace hrt;

constexpr std::uint32_t kNumCpus = 8;
constexpr std::uint32_t kLadenCpus = 1;
constexpr double kEps = 1e-9;

// Per-CPU capacity available to periodic admission under the default
// System options (utilization_limit - sporadic - aperiodic reservations).
// Phase B runs with those defaults, so the packers must plan against the
// same number or the execution would diverge from the plan.
double periodic_capacity(const System::Options& o) {
  return o.sched.utilization_limit - o.sched.sporadic_reservation -
         o.sched.aperiodic_reservation;
}

const global::Policy kPurePolicies[] = {
    global::Policy::kFirstFit,
    global::Policy::kBestFit,
    global::Policy::kWorstFit,
    global::Policy::kTopology,
};
constexpr std::size_t kNumPure = 4;

struct Cell {
  double u_target = 0;
  std::uint64_t seed = 0;
  std::vector<rt::PeriodicTask> tasks;
  global::PackResult pure[kNumPure];
  global::SemiPartitionedResult semi;
};

std::vector<rt::PeriodicTask> heavy_taskset(double u_target,
                                            std::uint64_t seed) {
  rt::TaskSetParams p;
  p.n = 9;
  p.total_utilization = u_target;
  p.min_period = sim::micros(500);
  p.max_period = sim::millis(4);
  p.period_granule = sim::micros(100);
  p.min_slice = sim::micros(10);
  sim::Rng rng(seed);
  std::vector<rt::PeriodicTask> tasks = rt::generate_taskset(p, rng);
  // A common spawn phase so Phase B admissions are aligned with the plan;
  // split chunks derive their pipeline offsets from this base.
  for (rt::PeriodicTask& t : tasks) t.phase = sim::millis(1);
  return tasks;
}

/// Re-derive each CPU's set from the assignment and re-run admission: a
/// packer bug that over-commits a CPU fails here, not in Phase B.
bool revalidate_pure(const Cell& cell, const global::PackResult& r,
                     double capacity) {
  std::vector<std::vector<rt::PeriodicTask>> sets(kNumCpus);
  for (std::size_t i = 0; i < cell.tasks.size(); ++i) {
    if (r.assignment[i] == global::kInvalidCpu) continue;
    sets[r.assignment[i]].push_back(cell.tasks[i]);
  }
  for (std::uint32_t c = 0; c < kNumCpus; ++c) {
    if (!rt::edf_admissible(sets[c], capacity)) return false;
    if (r.per_cpu[c] > capacity + kEps) return false;
  }
  return true;
}

bool revalidate_semi(const Cell& cell, double capacity) {
  std::vector<std::vector<rt::PeriodicTask>> sets(kNumCpus);
  const global::PackResult& base = cell.semi.base;
  for (std::size_t i = 0; i < cell.tasks.size(); ++i) {
    if (base.assignment[i] == global::kInvalidCpu) continue;
    sets[base.assignment[i]].push_back(cell.tasks[i]);
  }
  for (const auto& s : cell.semi.splits) {
    for (const global::SplitChunk& ch : s.plan.chunks) {
      sets[ch.cpu].push_back(rt::PeriodicTask{
          ch.constraints.period, ch.constraints.slice, ch.constraints.phase});
    }
  }
  for (std::uint32_t c = 0; c < kNumCpus; ++c) {
    if (!rt::edf_admissible(sets[c], capacity)) return false;
    if (cell.semi.per_cpu[c] > capacity + kEps) return false;
  }
  return true;
}

double best_pure_util(const Cell& cell) {
  double best = 0;
  for (const global::PackResult& r : cell.pure) {
    best = std::max(best, r.admitted_util);
  }
  return best;
}

// ---- Phase B: execute a packing on the simulator ----

struct SpawnSpec {
  std::uint32_t cpu = 0;
  rt::Constraints c;
};

std::vector<SpawnSpec> pure_spawns(const Cell& cell,
                                   const global::PackResult& r) {
  std::vector<SpawnSpec> out;
  for (std::size_t i = 0; i < cell.tasks.size(); ++i) {
    if (r.assignment[i] == global::kInvalidCpu) continue;
    const rt::PeriodicTask& t = cell.tasks[i];
    out.push_back(SpawnSpec{
        r.assignment[i], rt::Constraints::periodic(t.phase, t.period,
                                                   t.slice)});
  }
  return out;
}

std::vector<SpawnSpec> semi_spawns(const Cell& cell) {
  std::vector<SpawnSpec> out = pure_spawns(cell, cell.semi.base);
  for (const auto& s : cell.semi.splits) {
    for (const global::SplitChunk& ch : s.plan.chunks) {
      out.push_back(SpawnSpec{ch.cpu, ch.constraints});
    }
  }
  return out;
}

std::unique_ptr<nk::Behavior> rt_worker(const rt::Constraints& c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        // Chunks larger than any slice; budget enforcement does the slicing.
        return nk::Action::compute(sim::millis(2));
      });
}

struct ExecResult {
  std::string label;
  std::uint32_t threads = 0;
  std::uint32_t admitted = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t misses = 0;
  std::uint64_t audit_violations = 0;
  bool replayed = false;
  std::uint64_t replay_divergences = 0;
};

ExecResult run_cell(const std::string& label,
                    const std::vector<SpawnSpec>& specs, std::uint64_t seed,
                    sim::Nanos horizon, bool replay) {
  System::Options o;
  o.spec = hw::MachineSpec::r415();
  o.spec.num_cpus = kNumCpus;
  o.seed = seed;
  // The zero-miss claim is about placement, not SMI missing-time; the SMI
  // ablations cover that axis separately.
  o.spec.smi.enabled = false;
  o.interrupt_laden_cpus = kLadenCpus;
  o.audit.enabled = true;  // accumulate-mode invariant audits every pass
  System sys(std::move(o));
  if (replay) sys.machine().trace().enable();
  sys.boot();

  std::vector<nk::Thread*> threads;
  threads.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    threads.push_back(sys.spawn("p" + std::to_string(i),
                                rt_worker(specs[i].c), specs[i].cpu));
  }
  sys.run_for(horizon);

  ExecResult r;
  r.label = label;
  r.threads = static_cast<std::uint32_t>(threads.size());
  for (nk::Thread* t : threads) {
    if (t->is_realtime()) ++r.admitted;
    r.arrivals += t->rt.arrivals;
    r.misses += t->rt.misses;
  }
  r.audit_violations = sys.auditor().total_violations();

  if (replay) {
    const audit::ReplayConfig cfg =
        audit::replay_config_for(sys.machine().spec());
    r.replayed = true;
    for (std::uint32_t c = 0; c < kNumCpus; ++c) {
      std::vector<audit::ReplayTask> tasks;
      std::vector<nk::Thread*> on_cpu;
      for (nk::Thread* t : threads) {
        if (t->cpu != c || !t->is_realtime()) continue;
        tasks.push_back(audit::ReplayTask{t->id, t->constraints, t->rt.gamma});
        on_cpu.push_back(t);
      }
      if (tasks.empty()) continue;
      audit::ReplayResult rr = audit::replay_edf(sys.machine().trace(), c,
                                                 tasks, cfg, sys.engine().now());
      for (nk::Thread* t : on_cpu) {
        const std::uint64_t tol =
            std::max<std::uint64_t>(3, t->rt.arrivals / 50);
        audit::verify_stats(rr, t->id, t->rt.arrivals, t->rt.completions,
                            t->rt.misses, tol);
      }
      for (const audit::Divergence& d : rr.divergences) {
        std::fprintf(stderr, "[replay %s cpu%u] t=%lld: %s\n", label.c_str(),
                     c, (long long)d.time, d.detail.c_str());
      }
      r.replay_divergences += rr.divergences.size();
    }
  }
  return r;
}

std::string exec_json(const ExecResult& r) {
  bench::JsonObject j;
  j.field("label", r.label);
  j.field("threads", static_cast<std::uint64_t>(r.threads));
  j.field("admitted", static_cast<std::uint64_t>(r.admitted));
  j.field("arrivals", r.arrivals);
  j.field("misses", r.misses);
  j.field("audit_violations", r.audit_violations);
  j.field("replayed", std::string(r.replayed ? "yes" : "no"));
  j.field("replay_divergences", r.replay_divergences);
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  if (args.json.empty()) args.json = "BENCH_placement.json";

  const System::Options defaults;
  const double capacity = periodic_capacity(defaults);
  const std::uint64_t num_seeds = args.full ? 8 : 4;
  const double u_targets[] = {4.5, 5.5, 6.5};
  const sim::Nanos horizon = args.full ? sim::millis(500) : sim::millis(150);

  bench::header(
      "ablate_placement: pure partitioning vs semi-partitioned overflow",
      "semi admits >= best pure everywhere, strictly more somewhere; "
      "admitted sets run with zero misses");
  std::printf("8-CPU r415, capacity %.2f/CPU (%.2f total), n=9 heavy tasks, "
              "%llu seeds\n\n",
              capacity, capacity * kNumCpus, (unsigned long long)num_seeds);

  // ---- Phase A: static packing sweep (sharded across host cores) ----
  std::vector<Cell> cells;
  for (const double u : u_targets) {
    for (std::uint64_t s = 1; s <= num_seeds; ++s) {
      Cell c;
      c.u_target = u;
      c.seed = args.seed * 1000 + s;
      cells.push_back(std::move(c));
    }
  }
  bench::Stopwatch wall;
  bench::parallel_for_index(cells.size(), args.threads, [&](std::size_t i) {
    Cell& c = cells[i];
    c.tasks = heavy_taskset(c.u_target, c.seed);
    for (std::size_t p = 0; p < kNumPure; ++p) {
      c.pure[p] = global::pack_decreasing(c.tasks, kNumCpus, capacity,
                                          kPurePolicies[p], kLadenCpus);
    }
    c.semi = global::pack_semi_partitioned(c.tasks, kNumCpus, capacity,
                                           sim::micros(10), 8);
  });

  bool all_pure_valid = true;
  bool all_semi_valid = true;
  bool semi_ge_everywhere = true;
  std::uint32_t semi_strict_wins = 0;
  std::printf("%-6s %-6s %-7s", "U", "seed", "setU");
  for (std::size_t p = 0; p < kNumPure; ++p) {
    std::printf(" %10s", global::policy_name(kPurePolicies[p]));
  }
  std::printf(" %10s %s\n", "semi", "splits");
  for (const Cell& c : cells) {
    for (std::size_t p = 0; p < kNumPure; ++p) {
      all_pure_valid &= revalidate_pure(c, c.pure[p], capacity);
    }
    all_semi_valid &= revalidate_semi(c, capacity);
    const double best = best_pure_util(c);
    semi_ge_everywhere &= c.semi.admitted_util >= best - kEps;
    if (c.semi.admitted_util > best + 1e-6) ++semi_strict_wins;
    std::printf("%-6.2f %-6llu %-7.3f", c.u_target,
                (unsigned long long)c.seed,
                rt::total_utilization(c.tasks));
    for (std::size_t p = 0; p < kNumPure; ++p) {
      std::printf(" %10.3f", c.pure[p].admitted_util);
    }
    std::printf(" %10.3f %6zu\n", c.semi.admitted_util,
                c.semi.splits.size());
  }
  std::printf("\nsemi strictly beats every pure policy in %u/%zu cells\n\n",
              semi_strict_wins, cells.size());

  bench::shape_check("every pure packing passes per-CPU admission",
                     all_pure_valid);
  bench::shape_check("semi-partitioned packing passes per-CPU admission",
                     all_semi_valid);
  bench::shape_check("semi admits >= best pure policy in every cell",
                     semi_ge_everywhere);
  bench::shape_check("semi admits strictly more in at least one cell",
                     semi_strict_wins > 0);

  // ---- Phase B: execute sampled packings, assert zero misses ----
  // Sample: the first cell per U-target whose semi packing actually split
  // something (those exercise the pipeline chunks end to end).  Each sample
  // also runs the best pure policy's packing as a control.
  struct ExecJob {
    std::string label;
    std::vector<SpawnSpec> specs;
    std::uint64_t seed = 0;
    bool replay = false;
  };
  std::vector<ExecJob> jobs;
  for (const double u : u_targets) {
    const Cell* pick = nullptr;
    for (const Cell& c : cells) {
      if (c.u_target == u && !c.semi.splits.empty()) {
        pick = &c;
        break;
      }
    }
    if (pick == nullptr) continue;
    std::size_t best_p = 0;
    for (std::size_t p = 1; p < kNumPure; ++p) {
      if (pick->pure[p].admitted_util >
          pick->pure[best_p].admitted_util) {
        best_p = p;
      }
    }
    char tag[64];
    std::snprintf(tag, sizeof(tag), "U%.1f/s%llu", u,
                  (unsigned long long)pick->seed);
    // Replay-oracle the lowest-U sample: its trace is the most readable and
    // the oracle's cost grows with context-switch density.
    const bool replay = jobs.empty();
    jobs.push_back(ExecJob{std::string(tag) + "/semi", semi_spawns(*pick),
                           pick->seed, replay});
    jobs.push_back(ExecJob{
        std::string(tag) + "/" +
            global::policy_name(kPurePolicies[best_p]),
        pure_spawns(*pick, pick->pure[best_p]), pick->seed, false});
  }

  std::vector<ExecResult> execs(jobs.size());
  bench::parallel_for_index(jobs.size(), args.threads, [&](std::size_t i) {
    execs[i] = run_cell(jobs[i].label, jobs[i].specs, jobs[i].seed, horizon,
                        jobs[i].replay);
  });

  bool all_admitted = true;
  bool zero_misses = true;
  bool zero_divergences = true;
  bool any_replayed = false;
  std::uint64_t audit_violations = 0;
  std::printf("%-18s %8s %9s %9s %7s %7s\n", "execution", "threads",
              "admitted", "arrivals", "misses", "replay");
  for (const ExecResult& r : execs) {
    all_admitted &= r.admitted == r.threads;
    zero_misses &= r.misses == 0;
    zero_divergences &= r.replay_divergences == 0;
    any_replayed |= r.replayed;
    audit_violations += r.audit_violations;
    std::printf("%-18s %8u %9u %9llu %7llu %7s\n", r.label.c_str(),
                r.threads, r.admitted, (unsigned long long)r.arrivals,
                (unsigned long long)r.misses,
                r.replayed ? (r.replay_divergences == 0 ? "clean" : "DIVERGE")
                           : "-");
  }
  std::printf("\n");

  bench::shape_check("sampled packings exercise pipeline splits",
                     !jobs.empty());
  bench::shape_check("every planned task admitted at spawn", all_admitted);
  bench::shape_check("zero deadline misses across all executions",
                     zero_misses);
  bench::shape_check("EDF replay oracle ran and found no divergences",
                     any_replayed && zero_divergences);
  bench::shape_check("zero invariant-audit violations",
                     audit_violations == 0);

  std::printf("total wall %.2fs\n", wall.seconds());

  // ---- JSON record (schema: docs/PERFORMANCE.md) ----
  bench::JsonObject j;
  j.field("benchmark", std::string("ablate_placement"));
  j.field("mode", std::string(args.full ? "full" : "quick"));
  j.field("seed", static_cast<std::uint64_t>(args.seed));
  j.field("num_cpus", static_cast<std::uint64_t>(kNumCpus));
  j.field("capacity_per_cpu", capacity);
  j.field("semi_strict_wins", static_cast<std::uint64_t>(semi_strict_wins));
  j.field("cells_total", static_cast<std::uint64_t>(cells.size()));
  {
    std::string arr = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      bench::JsonObject cj;
      cj.field("u_target", c.u_target);
      cj.field("seed", static_cast<std::uint64_t>(c.seed));
      cj.field("set_util", rt::total_utilization(c.tasks));
      for (std::size_t p = 0; p < kNumPure; ++p) {
        cj.field(std::string(global::policy_name(kPurePolicies[p])) +
                     "_util",
                 c.pure[p].admitted_util);
      }
      cj.field("semi_util", c.semi.admitted_util);
      cj.field("semi_splits", static_cast<std::uint64_t>(c.semi.splits.size()));
      if (i > 0) arr += ", ";
      arr += cj.str();
    }
    arr += "]";
    j.raw("cells", arr);
  }
  {
    std::string arr = "[";
    for (std::size_t i = 0; i < execs.size(); ++i) {
      if (i > 0) arr += ", ";
      arr += exec_json(execs[i]);
    }
    arr += "]";
    j.raw("executions", arr);
  }
  if (!j.write_file(args.json)) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.json.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json.c_str());
  return 0;
}
