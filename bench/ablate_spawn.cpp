// Spawn-path ablation (PR 7): lock-free admission fast path + batched spawn.
//
// Three cells spawn the same N-spec periodic workload:
//   serial_slow — pre-PR flow: per-spec placement + thread creation +
//                 admission with the fast path DISABLED (every decision runs
//                 the O(n) slow analysis).
//   serial_fast — same per-spec flow with the Q32.32 word probe enabled.
//   batch       — System::spawn_batch: one placement pass, pool-backed
//                 parked creation, one admission analysis per target CPU,
//                 one kick per CPU.
//
// Plus a decision-latency cell: host-clock samples of the O(1) fast-path
// word probe vs the O(n) slow analysis on a scheduler holding a deep task
// set.  bench/run_perf.sh gates batch >= 5x serial_slow throughput at 1024
// specs and fast-path decision p99 <= 1 us (docs/PERFORMANCE.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace hrt;

constexpr unsigned kCpus = 2;  // deep per-CPU sets stress the slow analysis

/// Options for an `n`-spec cell.  Placement ranks CPUs by committed load,
/// which a held reservation does not change, so the serial cells' per-spec
/// placement may put every spec on one CPU: its queues must hold all `n`.
System::Options cell_options(bool fast, int n) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(kCpus);
  o.spec.smi.enabled = false;
  o.interrupt_laden_cpus = 0;
  o.sched.fast_admission = fast;
  o.sched.max_threads =
      std::max(o.sched.max_threads, static_cast<std::size_t>(n));
  return o;
}

/// Spec i of an `n`-spec workload: periods staggered so the sets are not
/// degenerate, slices scaled so the whole workload demands about 0.51 of
/// one CPU (5e-4 each at 1024 specs).  So it fits even on one CPU, and the
/// batch cell's all-or-nothing admission succeeds.
rt::Constraints workload_spec(int i, int n) {
  return rt::Constraints::periodic(
      0, sim::millis(100) + (i % 7) * sim::micros(10),
      sim::micros(50) * 1024 / n);
}

std::unique_ptr<nk::Behavior> worker() {
  return std::make_unique<nk::BusyLoopBehavior>(sim::millis(2));
}

struct CellResult {
  double spawns_per_sec = 0;
  std::uint64_t admitted = 0;
};

/// Pre-PR serial flow: place, create, admit — one full round-trip per spec.
CellResult run_serial(int n, bool fast) {
  CellResult best;
  for (int rep = 0; rep < 3; ++rep) {
    System sys(cell_options(fast, n));
    sys.boot();
    std::uint64_t ok = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
      const rt::Constraints c = workload_spec(i, n);
      const std::uint32_t cpu = sys.placement().place(c);
      nk::Thread* t = sys.spawn("w" + std::to_string(i), worker(), cpu);
      if (sys.sched(cpu).reserve_constraints(*t, c)) ++ok;
    }
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    best.spawns_per_sec = std::max(best.spawns_per_sec, n / secs);
    best.admitted = ok;
  }
  return best;
}

CellResult run_batch(int n) {
  CellResult best;
  for (int rep = 0; rep < 3; ++rep) {
    System sys(cell_options(true, n));
    sys.boot();
    std::vector<System::SpawnSpec> specs;
    specs.reserve(n);
    for (int i = 0; i < n; ++i) {
      System::SpawnSpec sp;
      sp.name = "w" + std::to_string(i);
      sp.behavior = worker();
      sp.constraints = workload_spec(i, n);
      specs.push_back(std::move(sp));
    }
    const auto t0 = Clock::now();
    System::BatchSpawnResult r = sys.spawn_batch(std::move(specs));
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    best.spawns_per_sec = std::max(best.spawns_per_sec, n / secs);
    best.admitted = r.ok ? r.threads.size() : 0;
  }
  return best;
}

struct Percentiles {
  double p50 = 0;
  double p99 = 0;
};

Percentiles percentiles(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Percentiles p;
  p.p50 = samples[samples.size() / 2];
  p.p99 = samples[samples.size() * 99 / 100];
  return p;
}

/// Host-clock latency of one admission decision against a scheduler already
/// holding `depth` periodic reservations of an `n`-spec workload.  `fast`
/// samples the O(1) word probe; the slow samples run the full analysis
/// (probe_admission).
void decision_latency(int n, int depth, int samples, Percentiles* fast,
                      Percentiles* slow) {
  // Two identically-loaded systems: probe_admission honors fast_admission,
  // so the slow samples must come from a system with the word probe off.
  System fast_sys(cell_options(true, n));
  System slow_sys(cell_options(false, n));
  fast_sys.boot();
  slow_sys.boot();
  for (int i = 0; i < depth; ++i) {
    nk::Thread* tf = fast_sys.spawn("h" + std::to_string(i), worker(), 0);
    nk::Thread* ts = slow_sys.spawn("h" + std::to_string(i), worker(), 0);
    (void)fast_sys.sched(0).reserve_constraints(*tf, workload_spec(i, n));
    (void)slow_sys.sched(0).reserve_constraints(*ts, workload_spec(i, n));
  }
  const rt::Constraints probe = workload_spec(0, n);
  std::vector<double> fast_ns, slow_ns;
  fast_ns.reserve(samples);
  slow_ns.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    auto t0 = Clock::now();
    const auto d = fast_sys.sched(0).fast_path_decision(probe);
    fast_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    if (!d.has_value()) std::abort();  // kEdf + periodic: probe must apply
    t0 = Clock::now();
    (void)slow_sys.sched(0).probe_admission(probe);
    slow_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  *fast = percentiles(fast_ns);
  *slow = percentiles(slow_ns);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const int n = args.full ? 4096 : 1024;

  bench::header("ablate_spawn: batched spawn + lock-free admission fast path",
                "amortized group admission; O(1) wait-free admit/reject probe");

  const CellResult slow = run_serial(n, /*fast=*/false);
  const CellResult fast = run_serial(n, /*fast=*/true);
  const CellResult batch = run_batch(n);
  const double speedup_batch = batch.spawns_per_sec / slow.spawns_per_sec;
  const double speedup_fast = fast.spawns_per_sec / slow.spawns_per_sec;

  std::printf("%-12s %12s %10s\n", "cell", "spawns/sec", "admitted");
  std::printf("%-12s %12.0f %10llu\n", "serial_slow", slow.spawns_per_sec,
              static_cast<unsigned long long>(slow.admitted));
  std::printf("%-12s %12.0f %10llu\n", "serial_fast", fast.spawns_per_sec,
              static_cast<unsigned long long>(fast.admitted));
  std::printf("%-12s %12.0f %10llu\n", "batch", batch.spawns_per_sec,
              static_cast<unsigned long long>(batch.admitted));
  std::printf("batch speedup vs serial_slow: %.2fx (fast path alone %.2fx)\n",
              speedup_batch, speedup_fast);

  Percentiles fp{}, sp{};
  decision_latency(n, /*depth=*/n / static_cast<int>(kCpus),
                   /*samples=*/args.full ? 100000 : 20000, &fp, &sp);
  std::printf("fast-path decision: p50 %.0f ns, p99 %.0f ns\n", fp.p50, fp.p99);
  std::printf("slow-path decision: p50 %.0f ns, p99 %.0f ns\n", sp.p50, sp.p99);

  // Decision equivalence: the fast path may only change cost, never the
  // verdict — both serial cells must admit the identical count.
  bench::shape_check("fast path never changes the admission verdict",
                     slow.admitted == fast.admitted);
  bench::shape_check("all-or-nothing batch admitted the whole workload",
                     batch.admitted == static_cast<std::uint64_t>(n));
  bench::shape_check("batch >= 5x serial_slow spawn throughput",
                     speedup_batch >= 5.0);
  bench::shape_check("fast-path decision p99 <= 1 us", fp.p99 <= 1000.0);

  if (!args.json.empty()) {
    bench::JsonObject j;
    j.field("benchmark", std::string("ablate_spawn"));
    j.field("mode", std::string(args.full ? "full" : "quick"));
    j.field("specs", static_cast<std::uint64_t>(n));
    j.field("cpus", static_cast<std::uint64_t>(kCpus));
    j.field("serial_slow_spawns_per_sec", slow.spawns_per_sec);
    j.field("serial_fast_spawns_per_sec", fast.spawns_per_sec);
    j.field("batch_spawns_per_sec", batch.spawns_per_sec);
    j.field("batch_speedup_vs_serial_slow", speedup_batch);
    j.field("fast_speedup_vs_serial_slow", speedup_fast);
    j.field("serial_slow_admits", slow.admitted);
    j.field("serial_fast_admits", fast.admitted);
    j.field("batch_admits", batch.admitted);
    j.field("fast_decision_p50_ns", fp.p50);
    j.field("fast_decision_p99_ns", fp.p99);
    j.field("slow_decision_p50_ns", sp.p50);
    j.field("slow_decision_p99_ns", sp.p99);
    if (!j.write_file(args.json)) {
      std::fprintf(stderr, "error: cannot write %s\n", args.json.c_str());
      return 1;
    }
  }
  return 0;
}
