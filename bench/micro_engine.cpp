// Engine microbenchmark: the timer-wheel sim::Engine on a mixed
// schedule/cancel/run workload.
//
// The workload models the simulator's hot path under a preemption-heavy RT
// load: completion events are scheduled a few microseconds to a few
// milliseconds out, and roughly half are cancelled before they fire (a
// preemption invalidates the in-flight completion).  The operation sequence
// is a pure function of --seed.
//
// Output: one human-readable line plus a machine-readable JSON record
// (--json=PATH, default BENCH_engine.json) with events/sec and sampled
// p50/p99 schedule_at/cancel latencies.  See docs/PERFORMANCE.md for the
// schema.
#include <chrono>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using hrt::sim::EventId;
using hrt::sim::Nanos;

struct EngineResult {
  double wall_s = 0;
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancels = 0;
  double events_per_sec = 0;  // executed events / wall
  double ops_per_sec = 0;     // schedule + cancel + execute / wall
  double sched_p50_ns = 0, sched_p99_ns = 0;
  double cancel_p50_ns = 0, cancel_p99_ns = 0;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Delay distribution: mostly wheel-window (timer/completion scale), a tail
/// of device/SMI-scale events that exercise the far heap.
inline Nanos pick_delay(hrt::sim::Rng& rng) {
  const double p = rng.next_double();
  if (p < 0.75) return rng.uniform(1, hrt::sim::micros(200));
  if (p < 0.95) {
    return rng.uniform(hrt::sim::micros(200), hrt::sim::millis(4));
  }
  return rng.uniform(hrt::sim::millis(4), hrt::sim::millis(40));
}

EngineResult run_mixed(std::uint64_t target_events, std::uint64_t seed) {
  hrt::sim::Engine eng;
  hrt::sim::Rng rng(seed);
  std::vector<EventId> inflight;
  inflight.reserve(4096);

  std::uint64_t fired = 0;
  hrt::sim::Samples sched_lat, cancel_lat;
  EngineResult r;

  bench::Stopwatch wall;
  while (fired < target_events) {
    // Schedule a burst of completion events.
    for (int b = 0; b < 16; ++b) {
      const Nanos delay = pick_delay(rng);
      EventId id;
      if ((r.scheduled & 127) == 0) {
        const std::uint64_t t0 = now_ns();
        id = eng.schedule_after(delay, [&fired] { ++fired; });
        sched_lat.add(static_cast<double>(now_ns() - t0));
      } else {
        id = eng.schedule_after(delay, [&fired] { ++fired; });
      }
      ++r.scheduled;
      inflight.push_back(id);
    }
    // Preemption: cancel roughly half of the in-flight completions.  Some
    // picks are stale (already fired) — that must be a cheap no-op too.
    for (int c = 0; c < 8 && !inflight.empty(); ++c) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(inflight.size()) - 1));
      const EventId id = inflight[pick];
      inflight[pick] = inflight.back();
      inflight.pop_back();
      if ((r.cancels & 127) == 0) {
        const std::uint64_t t0 = now_ns();
        eng.cancel(id);
        cancel_lat.add(static_cast<double>(now_ns() - t0));
      } else {
        eng.cancel(id);
      }
      ++r.cancels;
    }
    eng.run_until(eng.now() + hrt::sim::micros(50));
    // Periodically drop stale handles so the pick pool stays bounded.
    if (inflight.size() > 65536) {
      inflight.erase(inflight.begin(),
                     inflight.begin() +
                         static_cast<std::ptrdiff_t>(inflight.size() / 2));
    }
  }
  r.wall_s = wall.seconds();
  r.executed = eng.events_executed();
  r.events_per_sec = static_cast<double>(r.executed) / r.wall_s;
  r.ops_per_sec =
      static_cast<double>(r.scheduled + r.cancels + r.executed) / r.wall_s;
  r.sched_p50_ns = sched_lat.percentile(50);
  r.sched_p99_ns = sched_lat.percentile(99);
  r.cancel_p50_ns = cancel_lat.percentile(50);
  r.cancel_p99_ns = cancel_lat.percentile(99);
  return r;
}

void print_result(const char* name, const EngineResult& r) {
  std::printf("%-8s %10.3fs  %12.0f ev/s %12.0f op/s  sched p50/p99 %5.0f/%5.0f ns"
              "  cancel p50/p99 %5.0f/%5.0f ns\n",
              name, r.wall_s, r.events_per_sec, r.ops_per_sec, r.sched_p50_ns,
              r.sched_p99_ns, r.cancel_p50_ns, r.cancel_p99_ns);
}

std::string result_json(const EngineResult& r) {
  bench::JsonObject j;
  j.field("wall_s", r.wall_s);
  j.field("executed", r.executed);
  j.field("scheduled", r.scheduled);
  j.field("cancels", r.cancels);
  j.field("events_per_sec", r.events_per_sec);
  j.field("ops_per_sec", r.ops_per_sec);
  j.field("schedule_p50_ns", r.sched_p50_ns);
  j.field("schedule_p99_ns", r.sched_p99_ns);
  j.field("cancel_p50_ns", r.cancel_p50_ns);
  j.field("cancel_p99_ns", r.cancel_p99_ns);
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  if (args.json.empty()) args.json = "BENCH_engine.json";
  const std::uint64_t target = args.full ? 4'000'000 : 800'000;

  bench::header("micro_engine: timer-wheel Engine",
                "mixed schedule/cancel workload; events/sec and "
                "schedule/cancel p50/p99");
  std::printf("target events: %llu (seed %llu)\n\n",
              (unsigned long long)target, (unsigned long long)args.seed);

  // Warm-up pass (allocators, caches), then the measured pass.
  (void)run_mixed(target / 8, args.seed);
  const EngineResult wheel = run_mixed(target, args.seed);
  print_result("wheel", wheel);

  bench::JsonObject j;
  j.field("benchmark", std::string("micro_engine"));
  j.field("mode", std::string(args.full ? "full" : "quick"));
  j.field("seed", static_cast<std::uint64_t>(args.seed));
  j.field("target_events", static_cast<std::uint64_t>(target));
  j.raw("wheel", result_json(wheel));
  if (!j.write_file(args.json)) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.json.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json.c_str());
  return 0;
}
