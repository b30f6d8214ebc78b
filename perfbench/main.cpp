// hrt_e2e: run one benchmark workload for a time budget and print one JSON
// line with the raw per-iteration samples (perfbench/run.py aggregates).
//
//   hrt_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--smoke] [--max-iterations K] [--spans PATH]
//   hrt_e2e --self-test
//
// Iterations repeat the same seeded simulation until the next one would
// overrun the budget (at least three; four when traced).  Host times are
// reported in reference-host seconds (calibration_loop, harness.hpp); the
// raw run_s samples ride along for comparison.  With --trace 1 the
// iterations alternate untraced / traced: traced ones record spans around
// every public call and yield the per-layer metrics; the untraced ones give
// the same-process baseline for the tracing overhead.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

/// Per-layer metrics of one traced iteration: span self times by name and
/// counter deltas summed over the phase spans (each phase lies within one
/// System, so its deltas are well defined).  Rates divide the run phases'
/// counts by `untraced_run_s`, the raw run_s of the untraced repeat just
/// before: the counts repeat exactly for the seed, and the tracer's own
/// snapshot time stays out of the rates.
std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const IterResult& r, double untraced_run_s) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::vector<double>> by_name;  // self seconds
  Counters d;     // deltas over all phases
  Counters drun;  // deltas over run phases
  std::uint64_t pending_peak = 0;
  std::uint64_t trace_peak = 0;
  double rss_construct = 0.0;
  double rss_boot = 0.0;
  auto accumulate = [](Counters& acc, const Counters& a, const Counters& b) {
    for (std::size_t k = 0; k < kCounterCount; ++k) acc.v[k] += b.v[k] - a.v[k];
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    by_name[s.name].push_back(self[i]);
    pending_peak = std::max({pending_peak, s.c0[kPending], s.c1[kPending]});
    trace_peak = std::max(trace_peak, s.c1[kTraceRecords]);
    if (s.parent < 0) {
      // "System::System" opens with no System yet: its zero snapshot keeps
      // the enclosing phase's deltas exact.
      accumulate(d, s.c0, s.c1);
      if (std::strcmp(s.name, "run") == 0) accumulate(drun, s.c0, s.c1);
    }
    if (std::strcmp(s.name, "System::System") == 0) {
      rss_construct = std::max(rss_construct, s.c1.rss_mb);
    } else if (std::strcmp(s.name, "System::boot") == 0) {
      rss_boot = std::max(rss_boot, s.c1.rss_mb);
    }
  }
  auto pct = [&](const char* name, double q, double scale) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : percentile(it->second, q) * scale;
  };
  auto mean = [&](const char* name, double scale) {
    auto it = by_name.find(name);
    if (it == by_name.end() || it->second.empty()) return 0.0;
    double sum = 0.0;
    for (double v : it->second) sum += v;
    return sum / static_cast<double>(it->second.size()) * scale;
  };
  auto total = [&](const char* name, double scale) {
    auto it = by_name.find(name);
    if (it == by_name.end()) return 0.0;
    double sum = 0.0;
    for (double v : it->second) sum += v;
    return sum * scale;
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const double sim_ms = static_cast<double>(r.sim_ns) / 1e6;

  return {
      // sim
      {"sim.events", "count", u(r.events)},
      {"sim.events_per_s", "1/s", ratio(u(drun[kEvents]), untraced_run_s)},
      {"sim.host_ns_per_event", "ns",
       ratio(untraced_run_s * 1e9, u(drun[kEvents]))},
      {"sim.pending_peak", "count", u(pending_peak)},
      {"sim.slice_host_ms.p50", "ms", pct("run_for", 0.50, 1e3)},
      {"sim.slice_host_ms.p99", "ms", pct("run_for", 0.99, 1e3)},
      {"sim.trace_records", "count", u(trace_peak)},
      // hw + timesync
      {"boot.construct_ms", "ms", mean("System::System", 1e3)},
      {"boot.boot_ms", "ms", mean("System::boot", 1e3)},
      {"mem.after_construct_mb", "MB", rss_construct},
      {"mem.after_boot_mb", "MB", rss_boot},
      // nautilus
      {"nk.passes", "count", u(d[kNkPasses])},
      {"nk.switches", "count", u(d[kNkSwitches])},
      {"nk.preemptions", "count", u(d[kNkPreemptions])},
      {"nk.spawn_us.p50", "us", pct("System::spawn", 0.50, 1e6)},
      {"nk.spawn_us.p99", "us", pct("System::spawn", 0.99, 1e6)},
      // rt: scheduler pass
      {"rt.passes", "count", u(d[kPasses])},
      {"rt.timer_passes", "count", u(d[kTimerPasses])},
      {"rt.kick_passes", "count", u(d[kKickPasses])},
      {"rt.zero_delay_arms", "count", u(d[kZeroDelayArms])},
      {"rt.rr_rotations", "count", u(d[kRrRotations])},
      {"rt.passes_per_sim_ms", "1/ms", ratio(u(d[kPasses]), sim_ms)},
      {"rt.livelocked_cpus", "count", u(r.livelocked_cpus)},
      // rt: admission
      {"rt.admits_ok", "count", u(d[kAdmitsOk])},
      {"rt.admits_rejected", "count", u(d[kAdmitsRejected])},
      {"rt.fast_admits", "count", u(d[kFastAdmits])},
      {"rt.fast_fallbacks", "count", u(d[kFastFallbacks])},
      {"rt.fast_hit_frac", "ratio",
       ratio(u(d[kFastAdmits]), u(d[kFastAdmits] + d[kFastFallbacks]))},
      {"rt.batch_reserves", "count", u(d[kBatchReserves])},
      {"rt.spawn_batch_us.p50", "us", pct("spawn_batch", 0.50, 1e6)},
      {"rt.spawn_batch_us.p99", "us", pct("spawn_batch", 0.99, 1e6)},
      {"rt.probe_admission_ns.p50", "ns", pct("probe_admission", 0.50, 1e9)},
      {"rt.probe_admission_ns.p99", "ns", pct("probe_admission", 0.99, 1e9)},
      {"rt.admission_decisions_per_s", "1/s",
       ratio(u(drun[kAdmitsOk] + drun[kAdmitsRejected]), untraced_run_s)},
      // global
      {"global.place_batch_us.p50", "us", pct("place_batch", 0.50, 1e6)},
      {"global.place_batch_us.p99", "us", pct("place_batch", 0.99, 1e6)},
      {"global.spawn_auto_us.p50", "us", pct("spawn_auto", 0.50, 1e6)},
      {"global.spawn_auto_us.p99", "us", pct("spawn_auto", 0.99, 1e6)},
      {"global.spawn_split_us.p50", "us", pct("spawn_split", 0.50, 1e6)},
      {"global.fallback_placements", "count", u(d[kFallbackPlacements])},
      {"global.split_chunks", "count", u(d[kSplitChunks])},
      {"global.admit_give_ups", "count", u(d[kAdmitGiveUps])},
      {"global.rebalances", "count", u(d[kRebalances])},
      // group + bsp
      {"bsp.barrier_cell_s", "s", mean("bsp::run_bsp(barrier)", 1.0)},
      {"bsp.free_cell_s", "s", mean("bsp::run_bsp(free)", 1.0)},
      {"group.barrier_rounds", "count", u(r.barrier_rounds)},
      {"bsp.speedup", "ratio", r.bsp_speedup},
      // telemetry
      {"tel.records_written", "count", u(d[kRecWritten])},
      {"tel.records_dropped", "count", u(d[kRecDropped])},
      {"tel.drop_frac", "ratio", ratio(u(d[kRecDropped]), u(d[kRecWritten]))},
      {"tel.record_cost_ns", "ns", r.record_cost_ns},
      {"tel.export_ms", "ms", total("write_metrics_json", 1e3)},
      // audit
      {"audit.violations", "count", u(d[kViolations])},
      {"audit.replay_ms", "ms", total("audit::replay_edf", 1e3)},
      {"audit.replay_divergences", "count", u(r.replay_divergences)},
      // the tracer itself
      {"trace.spans", "count", u(spans.size())},
  };
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_num(v[i]);
  }
  return out + "]";
}

/// Same fields as bench::env_json (bench/common.hpp).
std::string env_json() {
  std::string out = "{\"host_cores\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": \"";
#if defined(__clang__)
  out += __VERSION__;
#elif defined(__GNUC__)
  out += "gcc ";
  out += __VERSION__;
#else
  out += "unknown";
#endif
  out += "\", \"build_flags\": \"";
#ifdef HRT_BUILD_FLAGS
  out += HRT_BUILD_FLAGS;
#endif
  out += "\", \"git_sha\": \"";
  const char* sha = std::getenv("HRT_GIT_SHA");
  out += (sha != nullptr && *sha != '\0') ? sha : "unknown";
  out += "\"}";
  return out;
}

int self_test() {
  int bad = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("[self-test %s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++bad;
  };
  check(percentile({}, 0.5) == 0.0, "percentile of an empty sample is 0");
  check(percentile({3, 1, 2}, 0.5) == 2.0, "p50 of {1,2,3} is 2");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(percentile(hundred, 1.0) == 100.0, "p100 is the maximum");
  check(percentile({7}, 0.01) == 7.0, "any percentile of one value");

  // phase [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
  std::vector<Span> spans(4);
  spans[0] = {"phase", -1, 0, 0.0, 10.0, {}, {}};
  spans[1] = {"a", 0, 0, 1.0, 4.0, {}, {}};
  spans[2] = {"b", 1, 0, 2.0, 3.0, {}, {}};
  spans[3] = {"c", 0, 0, 5.0, 9.0, {}, {}};
  const std::vector<double> self = self_times(spans);
  check(self[0] == 3.0 && self[1] == 2.0 && self[2] == 1.0 && self[3] == 4.0,
        "self time subtracts direct children only");

  Fingerprint a, b, c;
  a.add(1);
  a.add(2);
  b.add(1);
  b.add(2);
  c.add(2);
  c.add(1);
  check(a.value() == b.value(), "fingerprint is a function of its input");
  check(a.value() != c.value(), "fingerprint depends on order");

  Tracer off(false, 0);
  {
    Scope s(off, "x", true);
  }
  check(off.spans().empty(), "a disabled tracer records nothing");
  Tracer on(true, 7);
  {
    Scope outer(on, "outer", true);
    Scope inner(on, "inner");
  }
  check(on.spans().size() == 2 && on.spans()[1].parent == 0 &&
            on.spans()[1].run == 7 && on.spans()[0].c0.rss_mb > 0.0 &&
            on.spans()[1].c0.rss_mb < 0.0,
        "spans nest, carry the run id, and sample memory on request");
  check(calibration_loop() > 0.0, "the calibration loop takes host time");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  int max_iterations = 1 << 30;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") return self_test();
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--max-iterations" && has_value) {
      max_iterations = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else {
      std::fprintf(stderr, "hrt_e2e: unknown or incomplete argument %s\n",
                   a.c_str());
      return 2;
    }
  }
  const Workload wl = find_workload(workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "hrt_e2e: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  // Traced runs alternate untraced and traced repeats: two of each at least.
  const int min_iterations = trace ? 4 : 3;
  max_iterations = std::max(max_iterations, 1);

  const Inputs in = derive_inputs(seed, smoke);
  std::map<std::string, std::vector<double>> untraced;
  std::vector<double> traced_run_s;
  std::map<std::string, std::pair<const char*, std::vector<double>>> layers;
  std::vector<std::string> layer_order;
  std::set<std::string> failures;
  std::vector<Span> last_spans;
  IterResult first;
  bool have_first = false;
  bool agree = true;
  int iterations = 0;
  int failed = 0;

  // Host times are scaled to the reference host by the calibration loops
  // run just before and just after each repeat.
  std::vector<double> calibration_s = {calibration_loop()};
  const double start = now_s();
  for (;;) {
    const bool traced = trace && iterations % 2 == 1;
    Tracer tr(traced, static_cast<std::uint32_t>(iterations));
    IterResult r;
    try {
      r = wl(in, tr);
    } catch (const std::exception& e) {
      r.failures.push_back(std::string("exception: ") + e.what());
    }
    calibration_s.push_back(calibration_loop());
    const double scale = 2.0 * kReferenceCalibrationS /
                         (calibration_s[calibration_s.size() - 2] +
                          calibration_s.back());
    ++iterations;
    if (!r.failures.empty()) ++failed;
    failures.insert(r.failures.begin(), r.failures.end());
    if (!have_first) {
      first = r;
      have_first = true;
    } else if (r.fingerprint != first.fingerprint || r.events != first.events) {
      agree = false;
    }
    if (traced) {
      traced_run_s.push_back(r.run_s * scale);
      // Traced repeats are the odd ones, so an untraced repeat precedes each.
      for (const Metric& m :
           layer_metrics(tr.spans(), r, untraced["raw_run_s"].back())) {
        auto& slot = layers[m.name];
        if (slot.second.empty()) layer_order.push_back(m.name);
        slot.first = m.unit;
        slot.second.push_back(m.value);
      }
      last_spans = tr.spans();
    } else {
      const double sim_ms = static_cast<double>(r.sim_ns) / 1e6;
      untraced["setup_s"].push_back(r.setup_s * scale);
      untraced["run_s"].push_back(r.run_s * scale);
      untraced["wall_s"].push_back((r.setup_s + r.run_s + r.check_s) * scale);
      untraced["host_ms_per_sim_ms"].push_back(
          sim_ms > 0.0 ? r.run_s * scale * 1e3 / sim_ms : 0.0);
      untraced["raw_run_s"].push_back(r.run_s);
    }
    const double elapsed = now_s() - start;
    if (iterations >= max_iterations) break;
    if (iterations >= min_iterations &&
        elapsed + elapsed / iterations > seconds) {
      break;
    }
  }
  if (!agree) failures.insert("fingerprint differs between repeats of one seed");

  if (trace && !spans_path.empty() && !write_spans(spans_path, last_spans)) {
    failures.insert("cannot write spans to " + spans_path);
  }

  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(first.fingerprint));
  std::string out = "{\"workload\": " + json_str(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"trace\": " + std::string(trace ? "1" : "0");
  out += ", \"smoke\": " + std::string(smoke ? "true" : "false");
  out += ", \"iterations\": " + std::to_string(iterations);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"fingerprint\": \"" + std::string(fp) + "\"";
  out += ", \"fingerprints_agree\": " + std::string(agree ? "true" : "false");
  out += ", \"failures\": [";
  bool comma = false;
  for (const std::string& f : failures) {
    out += (comma ? ", " : "") + json_str(f);
    comma = true;
  }
  out += "], \"calibration_s\": " + json_list(calibration_s);
  out += ", \"deterministic\": {";
  out += "\"sim_ns\": " + std::to_string(first.sim_ns);
  out += ", \"systems\": " + std::to_string(first.systems);
  out += ", \"events\": " + std::to_string(first.events);
  out += ", \"windows\": " + std::to_string(first.windows);
  out += ", \"misses\": " + std::to_string(first.misses);
  out += ", \"admit_requested\": " + std::to_string(first.admit_requested);
  out += ", \"admit_accepted\": " + std::to_string(first.admit_accepted);
  out += ", \"livelocked_cpus\": " + std::to_string(first.livelocked_cpus);
  out += "}, \"samples\": {";
  comma = false;
  for (const auto& [name, v] : untraced) {
    out += (comma ? ", " : "") + json_str(name) + ": " + json_list(v);
    comma = true;
  }
  out += "}, \"traced_run_s\": " + json_list(traced_run_s);
  out += ", \"layers\": {";
  comma = false;
  for (const std::string& name : layer_order) {
    const auto& [unit, v] = layers[name];
    out += (comma ? ", " : "") + json_str(name) + ": {\"unit\": " +
           json_str(unit) + ", \"values\": " + json_list(v) + "}";
    comma = true;
  }
  out += "}, \"peak_rss_mb\": " + json_num(proc_status_mb("VmHWM"));
  out += ", \"elapsed_s\": " + json_num(now_s() - start);
  out += ", \"env\": " + env_json() + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
