// Telemetry flight-recorder overhead ablation (src/telemetry/).
//
// Phase A is the A/B that justifies leaving the recorder compiled in: the
// fig06-style 4-CPU sweep workload (one periodic per CPU, admission off) is
// run twice per cell with the same seed — telemetry off and telemetry on.
// Because every hook is a pure host-side observer that charges no simulated
// time, the two runs must produce the *same schedule*: identical arrivals
// and identical deadline misses, in the feasible cell and in the
// deliberately infeasible one.  The on-run additionally has to capture the
// full event vocabulary (admission, switches, misses) on all four CPUs.
//
// The overhead claim is then about the host, not the simulation: the batch-
// calibrated cost of one record() push, times the records emitted per
// scheduling pass, must amortize to < 2% of the mean scheduler pass span —
// the budget docs/OBSERVABILITY.md commits to and bench/run_perf.sh gates.
//
// Phase B closes the loop with the export layer: a machine-trace run is
// validated by the EDF replay oracle, adapted through from_sim_trace into
// the Chrome exporter, parsed back with the bundled parser, and the switch
// stream is required to match the machine trace record-for-record.
//
// Output: human-readable tables plus a JSON record (--json=PATH, default
// BENCH_telemetry.json); see docs/PERFORMANCE.md for the schema.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "audit/replay.hpp"
#include "common.hpp"
#include "rt/system.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace hrt;

constexpr std::uint32_t kCpus = 4;
constexpr std::size_t kRingCapacity = 1 << 15;

// ---- Phase A: same-seed A/B, telemetry off vs on ----

struct CellSpec {
  std::string label;
  sim::Nanos period = 0;
  int slice_pct = 0;
  bool feasible = false;
};

struct RunResult {
  std::uint64_t arrivals = 0;
  std::uint64_t misses = 0;
  std::uint64_t passes = 0;
  std::uint64_t events_written = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t slo_alerts = 0;
  std::uint32_t cpus_with_admit = 0;
  std::uint32_t cpus_with_switch = 0;
  std::uint32_t cpus_with_miss = 0;
  double span_sum_ns = 0;  // sum over pass-span samples (for a weighted mean)
  std::uint64_t span_samples = 0;
};

RunResult run_cell(const CellSpec& c, std::uint64_t seed, bool telemetry_on,
                   sim::Nanos horizon) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(kCpus);
  o.seed = seed;
  o.spec.smi.enabled = false;
  o.sched.admission_enabled = false;  // let the infeasible cell through
  o.telemetry.enabled = telemetry_on;
  o.telemetry.recorder.ring_capacity = kRingCapacity;
  if (telemetry_on) {
    // A permissive SLO keeps the monitor's hot path in the measurement
    // without alert/audit side effects dominating the infeasible cell.
    telemetry::SloSpec slo;
    slo.name = "sweep";
    slo.thread_match = "sweep";
    slo.miss_budget = 1.0;
    o.telemetry.slos.push_back(slo);
    o.telemetry.slo_audit = false;
  }
  System sys(std::move(o));
  sys.boot();
  const sim::Nanos slice = c.period * c.slice_pct / 100;
  for (std::uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    auto b = std::make_unique<nk::FnBehavior>(
        [c, slice](nk::ThreadCtx&, std::uint64_t step) {
          if (step == 0) {
            return nk::Action::change_constraints(
                rt::Constraints::periodic(sim::millis(1), c.period, slice));
          }
          return nk::Action::compute(sim::millis(2));
        });
    sys.spawn("sweep" + std::to_string(cpu), std::move(b), cpu);
  }
  sys.run_for(horizon);

  RunResult r;
  for (const nk::Thread* t : sys.kernel().live_threads()) {
    r.arrivals += t->rt.arrivals;
    r.misses += t->rt.misses;
  }
  if (!telemetry_on) return r;

  const telemetry::FlightRecorder& rec = sys.telemetry().recorder();
  r.events_written = rec.written();
  r.events_dropped = rec.dropped();
  r.slo_alerts = sys.telemetry().slo().alerts();
  for (std::uint32_t cpu = 0; cpu < kCpus; ++cpu) {
    const telemetry::CpuMetrics& m = sys.telemetry().metrics().cpu(cpu);
    r.passes += rec.count(cpu, telemetry::EventKind::kPass);
    r.span_sum_ns += m.pass_span_ns.mean() * m.pass_span_ns.count();
    r.span_samples += m.pass_span_ns.count();
    // Record counts, so ring wraparound cannot hide a captured kind.
    if (rec.count(cpu, telemetry::EventKind::kAdmitOk) > 0) {
      ++r.cpus_with_admit;
    }
    if (rec.count(cpu, telemetry::EventKind::kSwitch) > 0) {
      ++r.cpus_with_switch;
    }
    if (m.misses > 0) ++r.cpus_with_miss;
  }
  return r;
}

// ---- Phase B: export round-trip vs the machine trace and replay oracle ----

struct ChromeResult {
  bool replay_ok = false;
  std::uint64_t replay_divergences = 0;
  bool parsed_ok = false;
  std::uint64_t events = 0;
  std::uint64_t switch_events = 0;
  std::uint64_t trace_switches = 0;
  bool switch_match = false;
  bool ring_export_ok = false;
  std::uint64_t ring_export_events = 0;
};

ChromeResult run_chrome(std::uint64_t seed, sim::Nanos horizon) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(2);
  o.seed = seed;
  o.spec.smi.enabled = false;
  o.telemetry.enabled = true;
  o.telemetry.recorder.ring_capacity = kRingCapacity;
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  rt::Constraints rc = rt::Constraints::periodic(
      sim::millis(1), sim::micros(100), sim::micros(20));
  auto b = std::make_unique<nk::FnBehavior>(
      [rc](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(rc);
        return nk::Action::compute(sim::millis(2));
      });
  nk::Thread* t = sys.spawn("worker", std::move(b), 1);
  sys.run_for(horizon);

  ChromeResult r;
  const std::vector<audit::ReplayTask> tasks = {
      {t->id, t->constraints, t->rt.gamma}};
  const audit::ReplayConfig cfg =
      audit::replay_config_for(sys.machine().spec());
  const audit::ReplayResult rr = audit::replay_edf(
      sys.machine().trace(), 1, tasks, cfg, sys.engine().now());
  r.replay_ok = rr.ok();
  r.replay_divergences = rr.divergences.size();

  const auto records = telemetry::from_sim_trace(sys.machine().trace(), 1);
  std::ostringstream os;
  telemetry::write_chrome_trace(os, records);
  const telemetry::ParsedTrace parsed = telemetry::parse_chrome_trace(os.str());
  r.parsed_ok = parsed.ok;
  r.events = parsed.events.size();
  for (const telemetry::ParsedEvent& e : parsed.events) {
    if (e.phase == "i" && e.name == "switch") ++r.switch_events;
  }
  r.trace_switches =
      sys.machine().trace().filter(sim::TraceKind::kSwitch, 1).size();
  r.switch_match = r.switch_events == r.trace_switches && r.trace_switches > 0;

  // The recorder's own rings export through the same path (with run spans
  // and capacity counters attached).
  std::ostringstream os2;
  telemetry::write_chrome_trace(os2, sys.telemetry());
  const telemetry::ParsedTrace ring = telemetry::parse_chrome_trace(os2.str());
  r.ring_export_ok = ring.ok;
  r.ring_export_events = ring.events.size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  if (args.json.empty()) args.json = "BENCH_telemetry.json";

  bench::header(
      "ablate_telemetry_overhead: flight recorder + metrics + SLO observer",
      "telemetry on reproduces the off-schedule bit-identically (zero added "
      "misses) while capturing admission/switch/miss on every CPU; record "
      "cost amortizes to < 2% of the mean scheduler pass span; the Chrome "
      "export round-trips and matches the replay-oracle-validated trace");

  std::vector<CellSpec> cells = {
      {"feasible/1ms@30%", sim::millis(1), 30, true},
      {"tight/50us@90%", sim::micros(50), 90, false},
  };
  const std::uint64_t want_arrivals = args.full ? 2000 : 600;

  // 2 cells x {off, on}, every sim independent and seeded only by --seed.
  struct Job {
    std::size_t cell;
    bool on;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    jobs.push_back({i, false});
    jobs.push_back({i, true});
  }
  std::vector<RunResult> results(jobs.size());
  bench::Stopwatch wall;
  bench::parallel_for_index(jobs.size(), args.threads, [&](std::size_t i) {
    const CellSpec& c = cells[jobs[i].cell];
    sim::Nanos horizon =
        static_cast<sim::Nanos>(want_arrivals) * c.period;
    if (horizon > sim::millis(200)) horizon = sim::millis(200);
    if (horizon < sim::millis(30)) horizon = sim::millis(30);
    results[i] = run_cell(c, args.seed, jobs[i].on, horizon);
  });

  // Host-side record cost: batch calibration over the real push path.
  const double record_cost_ns = telemetry::FlightRecorder::
      measure_record_cost_ns(args.full ? (1u << 20) : (1u << 18));

  std::printf("%-18s %10s | %10s %10s %6s | %9s %8s %6s\n", "cell", "arrivals",
              "miss(off)", "miss(on)", "delta", "events", "dropped", "alerts");
  bool ab_identical = true;
  bool feasible_clean = true;
  bool infeasible_misses_everywhere = true;
  bool vocabulary_everywhere = true;
  double worst_overhead = 0.0;
  double worst_span_ns = 0.0;
  double worst_records_per_pass = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& c = cells[i];
    const RunResult& off = results[2 * i];
    const RunResult& on = results[2 * i + 1];
    const std::int64_t delta = static_cast<std::int64_t>(on.misses) -
                               static_cast<std::int64_t>(off.misses);
    ab_identical &= delta == 0 && on.arrivals == off.arrivals;
    if (c.feasible) feasible_clean &= on.misses == 0;
    if (!c.feasible) infeasible_misses_everywhere &= on.cpus_with_miss == kCpus;
    vocabulary_everywhere &=
        on.cpus_with_admit == kCpus && on.cpus_with_switch == kCpus;
    const double mean_span =
        on.span_samples > 0 ? on.span_sum_ns / on.span_samples : 0.0;
    const double records_per_pass =
        on.passes > 0 ? static_cast<double>(on.events_written) / on.passes
                      : 0.0;
    const double overhead =
        mean_span > 0 ? record_cost_ns * records_per_pass / mean_span : 1.0;
    if (overhead > worst_overhead) {
      worst_overhead = overhead;
      worst_span_ns = mean_span;
      worst_records_per_pass = records_per_pass;
    }
    std::printf("%-18s %10llu | %10llu %10llu %6lld | %9llu %8llu %6llu\n",
                c.label.c_str(), (unsigned long long)on.arrivals,
                (unsigned long long)off.misses, (unsigned long long)on.misses,
                (long long)delta, (unsigned long long)on.events_written,
                (unsigned long long)on.events_dropped,
                (unsigned long long)on.slo_alerts);
  }
  std::printf("\nrecord cost %.2f host-ns; worst cell: %.2f records/pass over "
              "%.0f ns mean pass span -> %.3f%% overhead\n\n",
              record_cost_ns, worst_records_per_pass, worst_span_ns,
              worst_overhead * 100.0);

  bench::shape_check(
      "telemetry on adds zero misses and changes no arrivals (same-seed A/B)",
      ab_identical);
  bench::shape_check("feasible cell runs miss-free with telemetry on",
                     feasible_clean);
  bench::shape_check("infeasible cell misses on every CPU (fig06 shape)",
                     infeasible_misses_everywhere);
  bench::shape_check("admission + switch events captured on all 4 CPUs",
                     vocabulary_everywhere);
  bench::shape_check("record cost amortizes to < 2% of mean pass span",
                     worst_overhead < 0.02);

  // ---- Phase B ----
  const ChromeResult ch =
      run_chrome(args.seed, args.full ? sim::millis(100) : sim::millis(30));
  std::printf("\nchrome: %llu events (%llu switch vs %llu in trace), replay "
              "divergences %llu, ring export %llu events\n",
              (unsigned long long)ch.events,
              (unsigned long long)ch.switch_events,
              (unsigned long long)ch.trace_switches,
              (unsigned long long)ch.replay_divergences,
              (unsigned long long)ch.ring_export_events);
  bench::shape_check("exported trace parses and matches the machine trace's "
                     "switch stream",
                     ch.parsed_ok && ch.switch_match && ch.ring_export_ok &&
                         ch.ring_export_events > 0);
  bench::shape_check("machine trace validates against the EDF replay oracle",
                     ch.replay_ok && ch.replay_divergences == 0);

  std::printf("total wall %.2fs\n", wall.seconds());

  // ---- JSON record (schema: docs/PERFORMANCE.md) ----
  bench::JsonObject j;
  j.field("benchmark", std::string("ablate_telemetry_overhead"));
  j.field("mode", std::string(args.full ? "full" : "quick"));
  j.field("seed", static_cast<std::uint64_t>(args.seed));
  j.field("record_cost_ns", record_cost_ns);
  j.field("ring_capacity", static_cast<std::uint64_t>(kRingCapacity));
  {
    std::string arr = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellSpec& c = cells[i];
      const RunResult& off = results[2 * i];
      const RunResult& on = results[2 * i + 1];
      bench::JsonObject cj;
      cj.field("label", c.label);
      cj.field("period_ns", static_cast<std::uint64_t>(c.period));
      cj.field("slice_pct", static_cast<std::uint64_t>(c.slice_pct));
      cj.field("arrivals", on.arrivals);
      cj.field("misses_off", off.misses);
      cj.field("misses_on", on.misses);
      cj.field("delta_misses", static_cast<double>(on.misses) -
                                   static_cast<double>(off.misses));
      cj.field("events_captured", on.events_written);
      cj.field("events_dropped", on.events_dropped);
      cj.field("slo_alerts", on.slo_alerts);
      cj.field("cpus_with_admit", static_cast<std::uint64_t>(on.cpus_with_admit));
      cj.field("cpus_with_switch",
               static_cast<std::uint64_t>(on.cpus_with_switch));
      cj.field("cpus_with_miss", static_cast<std::uint64_t>(on.cpus_with_miss));
      if (i > 0) arr += ", ";
      arr += cj.str();
    }
    arr += "]";
    j.raw("cells", arr);
  }
  j.field("mean_pass_span_ns", worst_span_ns);
  j.field("records_per_pass", worst_records_per_pass);
  j.field("overhead_fraction", worst_overhead);
  {
    bench::JsonObject cj;
    cj.field("parsed", std::string(ch.parsed_ok ? "yes" : "no"));
    cj.field("events", ch.events);
    cj.field("switch_events", ch.switch_events);
    cj.field("switch_match", std::string(ch.switch_match ? "yes" : "no"));
    cj.field("replay_divergences", ch.replay_divergences);
    cj.field("ring_export_events", ch.ring_export_events);
    j.raw("chrome", cj.str());
  }
  if (!j.write_file(args.json)) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.json.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json.c_str());
  return 0;
}
