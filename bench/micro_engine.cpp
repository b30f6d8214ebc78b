// Engine microbenchmark: the timer-wheel sim::Engine on two workloads.
//
// `wheel` models the simulator's hot path under a preemption-heavy RT
// load: completion events are scheduled a few microseconds to a few
// milliseconds out, and roughly half are cancelled before they fire (a
// preemption invalidates the in-flight completion).  The operation sequence
// is a pure function of --seed.
//
// `lockstep` models a gang-scheduled parallel job (the BSP runs of Figs.
// 15/16): every round, 256 events complete at one shared timestamp, each
// reschedules itself for the next round in rank order, and one event is
// inserted into the already-drained window at the shared timestamp, as a
// barrier release is.
//
// Output: one human-readable line per cell plus a machine-readable JSON
// record (--json=PATH, default BENCH_engine.json) with events/sec, and for
// `wheel` sampled p50/p99 schedule_at/cancel latencies.  A local tool:
// bench/run_perf.sh does not run it and no snapshot is committed, since
// single runs swing too widely to compare (docs/PERFORMANCE.md).
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

/// Lock-step gang: kGang members fire at one timestamp per round, in rank
/// order; each reschedules itself one round later, and the first member of
/// each round also schedules a release at now(), behind the whole gang.
EngineResult run_lockstep(std::uint64_t target_events) {
  constexpr std::uint32_t kGang = 256;
  constexpr Nanos kRound = hrt::sim::micros(20);
  struct Gang {
    hrt::sim::Engine eng;
    std::uint64_t scheduled = 0;

    void member(std::uint32_t rank) {
      eng.schedule_after(kRound, [this, rank] { member(rank); });
      ++scheduled;
      if (rank == 0) {
        eng.schedule_at(eng.now(), [] {});
        ++scheduled;
      }
    }
  };
  Gang g;
  EngineResult r;
  bench::Stopwatch wall;
  for (std::uint32_t rank = 0; rank < kGang; ++rank) {
    g.eng.schedule_at(kRound, [&g, rank] { g.member(rank); });
    ++g.scheduled;
  }
  while (g.eng.events_executed() < target_events) {
    g.eng.run_until(g.eng.now() + hrt::sim::micros(50));
  }
  r.wall_s = wall.seconds();
  r.executed = g.eng.events_executed();
  r.scheduled = g.scheduled;
  r.events_per_sec = static_cast<double>(r.executed) / r.wall_s;
  r.ops_per_sec =
      static_cast<double>(r.scheduled + r.executed) / r.wall_s;
  return r;
}

void print_result(const char* name, const EngineResult& r) {
  std::printf("%-8s %10.3fs  %12.0f ev/s %12.0f op/s  sched p50/p99 %5.0f/%5.0f ns"
              "  cancel p50/p99 %5.0f/%5.0f ns\n",
              name, r.wall_s, r.events_per_sec, r.ops_per_sec, r.sched_p50_ns,
              r.sched_p99_ns, r.cancel_p50_ns, r.cancel_p99_ns);
}

std::string lockstep_json(const EngineResult& r) {
  bench::JsonObject j;
  j.field("wall_s", r.wall_s);
  j.field("executed", r.executed);
  j.field("scheduled", r.scheduled);
  j.field("events_per_sec", r.events_per_sec);
  j.field("ops_per_sec", r.ops_per_sec);
  return j.str();
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
                "mixed schedule/cancel workload (events/sec, schedule/cancel "
                "p50/p99) and a 256-event lock-step gang (events/sec)");
  std::printf("target events: %llu (seed %llu)\n\n",
              (unsigned long long)target, (unsigned long long)args.seed);

  // Warm-up pass (allocators, caches), then the measured pass.
  (void)run_mixed(target / 8, args.seed);
  const EngineResult wheel = run_mixed(target, args.seed);
  print_result("wheel", wheel);
  (void)run_lockstep(target / 8);
  const EngineResult lockstep = run_lockstep(target);
  std::printf("%-8s %10.3fs  %12.0f ev/s %12.0f op/s\n", "lockstep",
              lockstep.wall_s, lockstep.events_per_sec, lockstep.ops_per_sec);

  bench::JsonObject j;
  j.field("benchmark", std::string("micro_engine"));
  j.field("mode", std::string(args.full ? "full" : "quick"));
  j.field("seed", static_cast<std::uint64_t>(args.seed));
  j.field("target_events", static_cast<std::uint64_t>(target));
  j.raw("wheel", result_json(wheel));
  j.raw("lockstep", lockstep_json(lockstep));
  if (!j.write_file(args.json)) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.json.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json.c_str());
  return 0;
}
