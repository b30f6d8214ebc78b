// SMI missing-time resilience ablation (src/resilience/).
//
// Phase A sweeps the online missing-time estimator against SmiSource ground
// truth across SMI duration cadences, including a Markov burst-mode cell.
// The scheduler never reads the source's counters -- the estimate is built
// purely from timer-delivery lateness and handler-span residuals -- so the
// harness comparing the two here is exactly the accuracy claim of section
// 3.6 resilience: the estimate lands within 20-25% of the stolen time the
// firmware actually took.
//
// Phase B is the A/B that motivates the subsystem: one over-committed CPU
// (0.75 across three criticalities) plus anchors that deny drain headroom,
// hit by a deterministic ~36% storm.  The static baseline keeps all
// commitments and misses throughout the storm; the resilient config detects
// the storm, sheds the least-critical work, keeps every surviving periodic
// at zero misses from the moment shedding engages, and restores the shed
// thread bit-identically once the storm passes.  Every transition is
// audit-recorded and the run is invariant-audited.
//
// Output: human-readable tables plus a JSON record (--json=PATH, default
// BENCH_smi_resilience.json); see docs/PERFORMANCE.md for the schema.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "common.hpp"
#include "resilience/storm.hpp"
#include "rt/system.hpp"

namespace {

using namespace hrt;

// ---- Phase A: estimator accuracy vs ground truth ----

struct AccuracyCell {
  std::string label;
  sim::Nanos min_dur = 0, mean_dur = 0, max_dur = 0;
  bool burst = false;
  // results
  double truth_ns = 0;
  double est_ns = 0;
  double ratio = 0;
  double ewma = 0;
  std::uint64_t episodes = 0;
  std::uint64_t smis = 0;
};

void run_accuracy(AccuracyCell& c, std::uint64_t seed, sim::Nanos horizon) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(2);
  o.seed = seed;
  o.spec.smi.mean_interval_ns = sim::micros(400);
  o.spec.smi.min_duration_ns = c.min_dur;
  o.spec.smi.mean_duration_ns = c.mean_dur;
  o.spec.smi.max_duration_ns = c.max_dur;
  if (c.burst) {
    o.spec.smi.mean_interval_ns = sim::millis(2);
    o.spec.smi.burst_enabled = true;
    o.spec.smi.storm_mean_interval_ns = sim::micros(120);
    o.spec.smi.mean_quiet_ns = sim::millis(4);
    o.spec.smi.mean_storm_ns = sim::millis(2);
  }
  o.resilience.enabled = true;
  System sys(std::move(o));
  sys.boot();
  // A busy periodic keeps CPU 1's timer path hot (arrivals every 100 us).
  rt::Constraints rc =
      rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                sim::micros(30));
  sys.spawn("busy",
            std::make_unique<nk::FnBehavior>(
                [rc](nk::ThreadCtx&, std::uint64_t step) {
                  if (step == 0) return nk::Action::change_constraints(rc);
                  return nk::Action::compute(rc.period / 7);
                }),
            1, 10);
  sys.run_for(horizon);

  c.truth_ns = static_cast<double>(sys.machine().smi().stats().total_stolen_ns);
  c.est_ns = static_cast<double>(sys.sched(1).missing_time().stolen_total_ns());
  c.ratio = c.truth_ns > 0 ? c.est_ns / c.truth_ns : 0.0;
  c.ewma = sys.sched(1).missing_time().ewma_fraction();
  c.episodes = sys.sched(1).missing_time().episodes();
  c.smis = sys.machine().smi().stats().count;
}

// ---- Phase B: resilient vs static baseline under an injected storm ----

nk::Thread* spawn_rt(System& sys, std::string name, std::uint32_t cpu,
                     sim::Nanos period, sim::Nanos slice,
                     rt::AperiodicPriority crit) {
  rt::Constraints c = rt::Constraints::periodic(sim::millis(1), period, slice);
  c.priority = crit;  // shed criticality: lower value = more important
  auto b = std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(c.period / 7);
      });
  return sys.spawn(std::move(name), std::move(b), cpu, 10);
}

struct AbThread {
  std::string name;
  std::uint64_t arrivals = 0;
  std::uint64_t misses = 0;
  std::uint64_t misses_at_engage = 0;  // snapshot when shedding engaged
  bool was_shed = false;
};

struct AbResult {
  std::string label;
  bool resilient = false;
  std::vector<AbThread> threads;
  std::uint64_t total_misses = 0;
  std::uint64_t sheds = 0, restores = 0, drains = 0;
  std::uint64_t storms_entered = 0, storms_exited = 0;
  std::uint64_t transitions_logged = 0;
  std::uint64_t shed_count_end = 0;
  std::uint64_t audit_violations = 0;       // all invariants
  std::uint64_t resilience_violations = 0;  // kShedState + kEffectiveCapacity
  bool engaged = false;
  sim::Nanos engage_time = -1;
  // misses accrued by never-shed periodics after shedding engaged
  std::uint64_t post_engage_nonshed_misses = 0;
};

AbResult run_ab(bool resilient, std::uint64_t seed) {
  AbResult r;
  r.label = resilient ? "resilient" : "baseline";
  r.resilient = resilient;

  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.seed = seed;
  o.spec.smi.enabled = false;  // storm injected deterministically below
  o.resilience.enabled = resilient;
  o.audit.enabled = true;
  // The spec says no SMIs, so the auto-derived budget tolerance carries no
  // missing-time allowance — but the hand-forced freezes below do charge
  // slices (section 3.6): up to three 35 us freezes fit the 200 us slice.
  o.audit.budget_slop = sim::micros(120);
  System sys(std::move(o));
  sys.boot();

  // Anchors keep every other CPU too full to absorb a drain under a
  // machine-wide storm; the contested CPU carries 0.75 across three
  // criticality levels.
  std::vector<nk::Thread*> threads;
  threads.push_back(spawn_rt(sys, "anchor0", 0, sim::millis(1),
                             sim::micros(300), 0));
  threads.push_back(spawn_rt(sys, "anchor2", 2, sim::millis(1),
                             sim::micros(300), 0));
  threads.push_back(spawn_rt(sys, "anchor3", 3, sim::millis(1),
                             sim::micros(300), 0));
  threads.push_back(spawn_rt(sys, "crit", 1, sim::micros(100),
                             sim::micros(30), 1));
  threads.push_back(spawn_rt(sys, "mid", 1, sim::micros(500),
                             sim::micros(125), 4));
  threads.push_back(spawn_rt(sys, "low", 1, sim::millis(1),
                             sim::micros(200), 6));
  sys.run_for(sim::millis(5));

  // ~36% of the machine stolen over [5, 60) ms.  97 us is coprime with the
  // watchdog cadence so the deterministic grid cannot phase-lock against
  // the timer (real SMI arrivals are exponential and never lock).
  for (sim::Nanos t = sim::millis(5); t < sim::millis(60);
       t += sim::micros(97)) {
    sys.engine().schedule_at(t, [&sys] {
      sys.machine().smi().force(sim::micros(35));
    });
  }
  // Poll for the moment shedding engages and snapshot per-thread misses:
  // the zero-miss claim is about surviving periodics *after* the controller
  // reacts, not about the detection transient.
  std::vector<std::uint64_t> engage_misses(threads.size(), 0);
  bool engaged = false;
  sim::Nanos engage_time = -1;
  if (resilient) {
    for (sim::Nanos t = sim::millis(6); t < sim::millis(60);
         t += sim::millis(1)) {
      sys.engine().schedule_at(t, [&, t] {
        if (engaged || sys.resilience().stats().sheds == 0) return;
        engaged = true;
        engage_time = t;
        for (std::size_t i = 0; i < threads.size(); ++i) {
          engage_misses[i] = threads[i]->rt.misses;
        }
      });
    }
  }
  sys.run_for(sim::millis(145));  // storm + hysteresis exit + restoration

  r.audit_violations = sys.auditor().total_violations();
  r.resilience_violations =
      sys.auditor().count(audit::Invariant::kShedState) +
      sys.auditor().count(audit::Invariant::kEffectiveCapacity);
  r.engaged = engaged;
  r.engage_time = engage_time;
  if (resilient) {
    const auto& st = sys.resilience().stats();
    r.sheds = st.sheds;
    r.restores = st.restores;
    r.drains = st.drains;
    r.storms_entered = st.storms_entered;
    r.storms_exited = st.storms_exited;
    r.transitions_logged = sys.resilience().transitions().size();
    r.shed_count_end = sys.resilience().shed_count();
  }
  for (std::size_t i = 0; i < threads.size(); ++i) {
    AbThread at;
    at.name = threads[i]->name;
    at.arrivals = threads[i]->rt.arrivals;
    at.misses = threads[i]->rt.misses;
    at.misses_at_engage = engage_misses[i];
    if (resilient) {
      for (const resilience::Transition& tr : sys.resilience().transitions()) {
        if (tr.kind == resilience::Transition::Kind::kShed &&
            tr.thread_id == threads[i]->id) {
          at.was_shed = true;
        }
      }
    }
    r.total_misses += at.misses;
    if (engaged && !at.was_shed) {
      r.post_engage_nonshed_misses += at.misses - at.misses_at_engage;
    }
    r.threads.push_back(std::move(at));
  }
  return r;
}

std::string ab_json(const AbResult& r) {
  bench::JsonObject j;
  j.field("label", r.label);
  j.field("total_misses", r.total_misses);
  j.field("sheds", r.sheds);
  j.field("restores", r.restores);
  j.field("drains", r.drains);
  j.field("storms_entered", r.storms_entered);
  j.field("storms_exited", r.storms_exited);
  j.field("transitions_logged", r.transitions_logged);
  j.field("shed_count_end", r.shed_count_end);
  j.field("audit_violations", r.audit_violations);
  j.field("resilience_violations", r.resilience_violations);
  j.field("post_engage_nonshed_misses", r.post_engage_nonshed_misses);
  std::string arr = "[";
  for (std::size_t i = 0; i < r.threads.size(); ++i) {
    const AbThread& t = r.threads[i];
    bench::JsonObject tj;
    tj.field("name", t.name);
    tj.field("arrivals", t.arrivals);
    tj.field("misses", t.misses);
    tj.field("was_shed", std::string(t.was_shed ? "yes" : "no"));
    if (i > 0) arr += ", ";
    arr += tj.str();
  }
  arr += "]";
  j.raw("threads", arr);
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  if (args.json.empty()) args.json = "BENCH_smi_resilience.json";

  bench::header(
      "ablate_smi_resilience: online missing-time estimation + storm shedding",
      "estimator within 20-25% of SmiSource ground truth; under a ~36% storm "
      "the resilient config sheds low-criticality work and keeps surviving "
      "periodics at zero misses while the static baseline misses");

  // ---- Phase A ----
  const sim::Nanos horizon = args.full ? sim::seconds(3) : sim::seconds(1);
  std::vector<AccuracyCell> cells = {
      {"short/15us", sim::micros(10), sim::micros(15), sim::micros(30)},
      {"mid/35us", sim::micros(20), sim::micros(35), sim::micros(80)},
      {"long/50us", sim::micros(30), sim::micros(50), sim::micros(100)},
      {"burst/15us", sim::micros(10), sim::micros(15), sim::micros(30), true},
  };
  if (args.full) {
    cells.push_back(
        {"tiny/8us", sim::micros(5), sim::micros(8), sim::micros(15)});
  }
  bench::Stopwatch wall;
  bench::parallel_for_index(cells.size(), args.threads, [&](std::size_t i) {
    run_accuracy(cells[i], args.seed + i, horizon);
  });

  std::printf("%-12s %12s %12s %7s %7s %9s %7s\n", "cell", "truth_us",
              "est_us", "ratio", "ewma", "episodes", "smis");
  bool all_in_band = true;
  for (const AccuracyCell& c : cells) {
    all_in_band &= c.ratio >= 0.80 && c.ratio <= 1.25;
    std::printf("%-12s %12.1f %12.1f %7.3f %7.4f %9llu %7llu\n",
                c.label.c_str(), c.truth_ns / 1000.0, c.est_ns / 1000.0,
                c.ratio, c.ewma, (unsigned long long)c.episodes,
                (unsigned long long)c.smis);
  }
  std::printf("\n");
  bench::shape_check("estimator within [0.80, 1.25] of ground truth in "
                     "every cell (software-only signals)",
                     all_in_band);

  // ---- Phase B ----
  AbResult ab[2];
  bench::parallel_for_index(2, args.threads, [&](std::size_t i) {
    ab[i] = run_ab(i == 1, args.seed);
  });
  const AbResult& base = ab[0];
  const AbResult& res = ab[1];

  std::printf("\n%-10s %8s | baseline misses | resilient misses  shed\n",
              "thread", "arrivals");
  for (std::size_t i = 0; i < base.threads.size(); ++i) {
    std::printf("%-10s %8llu | %15llu | %16llu  %s\n",
                base.threads[i].name.c_str(),
                (unsigned long long)res.threads[i].arrivals,
                (unsigned long long)base.threads[i].misses,
                (unsigned long long)res.threads[i].misses,
                res.threads[i].was_shed ? "yes" : "no");
  }
  std::printf("\nbaseline total misses %llu; resilient: %llu sheds, %llu "
              "restores, %llu drains, %llu transitions logged, engage at "
              "%.1f ms, post-engage non-shed misses %llu\n\n",
              (unsigned long long)base.total_misses,
              (unsigned long long)res.sheds,
              (unsigned long long)res.restores,
              (unsigned long long)res.drains,
              (unsigned long long)res.transitions_logged,
              res.engage_time / 1e6,
              (unsigned long long)res.post_engage_nonshed_misses);

  bench::shape_check("static baseline misses under the storm",
                     base.total_misses > 0);
  bench::shape_check("storm detected and shedding engaged",
                     res.engaged && res.storms_entered > 0 && res.sheds > 0);
  bench::shape_check("non-shed periodics at zero misses once shedding engaged",
                     res.post_engage_nonshed_misses == 0);
  bench::shape_check("every shed restored after the storm",
                     res.storms_exited > 0 && res.restores == res.sheds &&
                         res.shed_count_end == 0);
  bench::shape_check("every transition audit-recorded (log covers stats)",
                     res.transitions_logged >=
                         res.sheds + res.restores + res.drains +
                             res.storms_entered + res.storms_exited);
  bench::shape_check("zero invariant-audit violations in both runs",
                     base.audit_violations == 0 && res.audit_violations == 0);

  std::printf("total wall %.2fs\n", wall.seconds());

  // ---- JSON record (schema: docs/PERFORMANCE.md) ----
  bench::JsonObject j;
  j.field("benchmark", std::string("ablate_smi_resilience"));
  j.field("mode", std::string(args.full ? "full" : "quick"));
  j.field("seed", static_cast<std::uint64_t>(args.seed));
  j.field("horizon_ms", static_cast<std::uint64_t>(horizon / 1000000));
  {
    std::string arr = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const AccuracyCell& c = cells[i];
      bench::JsonObject cj;
      cj.field("label", c.label);
      cj.field("burst", std::string(c.burst ? "yes" : "no"));
      cj.field("truth_ns", c.truth_ns);
      cj.field("est_ns", c.est_ns);
      cj.field("ratio", c.ratio);
      cj.field("ewma", c.ewma);
      cj.field("episodes", c.episodes);
      cj.field("smis", c.smis);
      if (i > 0) arr += ", ";
      arr += cj.str();
    }
    arr += "]";
    j.raw("accuracy_cells", arr);
  }
  j.raw("baseline", ab_json(base));
  j.raw("resilient", ab_json(res));
  if (!j.write_file(args.json)) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.json.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json.c_str());
  return 0;
}
