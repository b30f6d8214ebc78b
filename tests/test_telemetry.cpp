// Telemetry flight recorder + SLO observability (src/telemetry/,
// docs/OBSERVABILITY.md):
//   * the per-CPU seqlock SPSC ring: ordering, drop-oldest wraparound,
//     generation tags, and torn-read rejection under a real writer thread,
//   * the recorder's per-(CPU, kind) record counts and self-measured
//     record cost,
//   * log-bucketed histograms and their quantile extraction,
//   * the streaming metrics registry and the declarative SLO monitor
//     (burn-rate windows, alert transitions, the kSloBudget invariant),
//   * end-to-end capture through rt::System: default-off null-pointer
//     wiring, bit-identical scheduling on vs off, scheduler/migration
//     events landing in the right rings, and every exported per-CPU event
//     counter equal to the count of its records,
//   * the export layer: Chrome trace JSON round-trips through the bundled
//     parser, and a sim::Trace adapted through the same exporter agrees
//     with the EDF replay oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "audit/replay.hpp"
#include "rt/report.hpp"
#include "rt/system.hpp"
#include "sim/histogram.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics_diff.hpp"

namespace hrt {
namespace {

using telemetry::EventKind;
using telemetry::Record;

System::Options observed(std::uint32_t cpus = 4) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;
  o.telemetry.enabled = true;
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

std::unique_ptr<nk::FnBehavior> rt_worker(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

Record rec_at(sim::Nanos t, std::int64_t arg) {
  Record r;
  r.time = t;
  r.arg = arg;
  r.kind = EventKind::kCustom;
  return r;
}

// ---------- ring ----------

TEST(TelemetryRing, OrderAndWraparound) {
  telemetry::SpscRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::int64_t i = 0; i < 20; ++i) ring.push(rec_at(i, i));
  EXPECT_EQ(ring.written(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  EXPECT_EQ(ring.first_retained(), 12u);

  std::uint64_t torn = ~0ull;
  const auto snap = ring.snapshot(&torn);
  EXPECT_EQ(torn, 0u);  // single-threaded: nothing can tear
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const std::int64_t logical = 12 + static_cast<std::int64_t>(i);
    EXPECT_EQ(snap[i].time, logical);
    EXPECT_EQ(snap[i].arg, logical);
    // gen = lap count at write: records 12..15 were lap 1, 16..19 lap 2.
    EXPECT_EQ(snap[i].gen, logical < 16 ? 1 : 2);
  }
  // Capacity rounds up to a power of two with a floor of 8.
  EXPECT_EQ(telemetry::SpscRing(1).capacity(), 8u);
  EXPECT_EQ(telemetry::SpscRing(100).capacity(), 128u);

  // gen is the lap modulo 256: past lap 255 it wraps to 0.
  telemetry::SpscRing laps(16);
  const std::int64_t n = 16 * 300 + 5;
  for (std::int64_t i = 0; i < n; ++i) laps.push(rec_at(i, i));
  const auto tail = laps.snapshot();
  ASSERT_EQ(tail.size(), 16u);
  for (const Record& r : tail) {
    EXPECT_EQ(r.gen, static_cast<std::uint8_t>(r.time / 16)) << r.time;
  }
  EXPECT_EQ(tail.front().gen, 43);  // record 4789, lap 299
  EXPECT_EQ(tail.back().gen, 44);   // record 4804, lap 300
}

/// Hammer one ring from a real writer thread while snapshotting it, and
/// verify every returned record is internally consistent (arg == time) and
/// in order.  `push(i)` writes record i; `snapshot(&torn)` copies the ring.
void check_concurrent_writer_reader(
    std::size_t capacity, const std::function<void(std::int64_t)>& push,
    const std::function<std::vector<Record>(std::uint64_t*)>& snapshot) {
  constexpr std::int64_t kN = 200000;
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Start once the reader is up, so the two really overlap: the whole
    // write burst takes only a few milliseconds.
    while (!reading.load(std::memory_order_acquire)) {
    }
    for (std::int64_t i = 0; i < kN; ++i) push(i);
    done.store(true, std::memory_order_release);
  });
  std::uint64_t total_torn = 0;
  std::uint64_t snapshots = 0;
  reading.store(true, std::memory_order_release);
  do {
    std::uint64_t torn = 0;
    const auto snap = snapshot(&torn);
    total_torn += torn;
    ++snapshots;
    sim::Nanos prev = -1;
    for (const Record& r : snap) {
      ASSERT_EQ(r.arg, r.time) << "torn record leaked through the seqlock";
      ASSERT_GT(r.time, prev) << "snapshot out of order";
      prev = r.time;
    }
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  EXPECT_GT(snapshots, 0u);
  // A final quiescent snapshot sees the full retained window.
  const auto snap = snapshot(nullptr);
  ASSERT_EQ(snap.size(), capacity);
  EXPECT_EQ(snap.front().time, kN - static_cast<std::int64_t>(capacity));
  EXPECT_EQ(snap.back().time, kN - 1);
}

TEST(TelemetryRing, ConcurrentWriterReaderNoTornRecords) {
  // The simulator never races writer against reader (one host thread), but
  // the seqlock protocol must hold for a native port.
  telemetry::SpscRing ring(256);
  check_concurrent_writer_reader(
      ring.capacity(), [&](std::int64_t i) { ring.push(rec_at(i, i)); },
      [&](std::uint64_t* torn) { return ring.snapshot(torn); });
  EXPECT_EQ(ring.written(), 200000u);
}

// ---------- recorder ----------

TEST(TelemetryRecorder, KindCountsMergedSnapshotAndSelfCost) {
  telemetry::RecorderConfig cfg;
  cfg.ring_capacity = 64;
  cfg.cost_sample_every = 1;  // probe every record
  telemetry::FlightRecorder rec(2, cfg);
  rec.record(0, EventKind::kPass, 100, 0, 1);
  rec.record(1, EventKind::kSwitch, 50, 7, 0);
  rec.record(0, EventKind::kSwitch, 200, 9, 0);
  rec.record(1, EventKind::kDeadlineMiss, 300, 7, 5000);
  EXPECT_EQ(rec.written(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.kind_count(EventKind::kSwitch), 2u);
  EXPECT_EQ(rec.kind_count(EventKind::kPass), 1u);
  EXPECT_EQ(rec.kind_count(EventKind::kDeadlineMiss), 1u);
  EXPECT_EQ(rec.kind_count(EventKind::kKick), 0u);
  EXPECT_EQ(rec.count(0, EventKind::kSwitch), 1u);
  EXPECT_EQ(rec.count(1, EventKind::kSwitch), 1u);
  EXPECT_EQ(rec.count(0, EventKind::kPass), 1u);
  EXPECT_EQ(rec.count(1, EventKind::kPass), 0u);
  EXPECT_EQ(rec.count(1, EventKind::kDeadlineMiss), 1u);
  EXPECT_EQ(rec.count(2, EventKind::kPass), 0u);  // no ring: nothing counted
  EXPECT_EQ(rec.retained_kind_count(1, EventKind::kDeadlineMiss), 1u);
  EXPECT_EQ(rec.retained_kind_count(0, EventKind::kDeadlineMiss), 0u);

  // snapshot_all merges by time across rings.
  const auto all = rec.snapshot_all();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].time, 50);
  EXPECT_EQ(all[1].time, 100);
  EXPECT_EQ(all[2].time, 200);
  EXPECT_EQ(all[3].time, 300);
  EXPECT_EQ(all[0].cpu, 1u);

  // Self-measured cost: both the in-line probe and the batch calibration
  // must produce a sane host-ns figure (sub-microsecond on any host).
  EXPECT_EQ(rec.sampled_cost_ns().count(), 4u);
  // The default probe times records 64, 128, ...: exactly written / 64.
  telemetry::FlightRecorder every64(2, telemetry::RecorderConfig{});
  ASSERT_EQ(every64.config().cost_sample_every, 64u);
  for (std::uint64_t i = 1; i <= 64 * 5 + 63; ++i) {
    every64.record(static_cast<std::uint32_t>(i % 2), EventKind::kPass,
                   static_cast<sim::Nanos>(i), 0, 0);
    ASSERT_EQ(every64.sampled_cost_ns().count(), every64.written() / 64) << i;
  }
  const double cost = telemetry::FlightRecorder::measure_record_cost_ns(50000);
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 1000.0);

  for (std::size_t k = 0; k < telemetry::kEventKindCount; ++k) {
    EXPECT_NE(telemetry::event_kind_name(static_cast<EventKind>(k)),
              std::string("?"));
  }
}

TEST(TelemetryRecorder, SlabRingsStayApartAndStartEmpty) {
  telemetry::RecorderConfig cfg;
  cfg.ring_capacity = 8;
  cfg.cost_sample_every = 0;
  // A fresh recorder: zeroed slab memory is an empty ring on every CPU.
  const telemetry::FlightRecorder fresh(4, cfg);
  for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
    EXPECT_TRUE(fresh.snapshot(cpu).empty()) << cpu;
    EXPECT_EQ(fresh.ring(cpu).written(), 0u);
  }

  telemetry::FlightRecorder rec(4, cfg);
  const std::size_t cap = rec.ring(1).capacity();
  ASSERT_EQ(cap, 8u);
  for (std::size_t i = 0; i < cap + 5; ++i) {
    rec.record(1, EventKind::kCustom, static_cast<sim::Nanos>(i), 0,
               static_cast<std::int64_t>(i));
  }
  for (const std::uint32_t cpu : {0u, 2u, 3u}) {
    EXPECT_TRUE(rec.snapshot(cpu).empty()) << cpu;
    EXPECT_EQ(rec.count(cpu, EventKind::kCustom), 0u) << cpu;
  }
  // The count keeps what the drop-oldest ring forgot.
  EXPECT_EQ(rec.count(1, EventKind::kCustom), cap + 5);
  EXPECT_EQ(rec.retained_kind_count(1, EventKind::kCustom), cap);
  auto check_cpu1 = [&] {
    const auto snap = rec.snapshot(1);
    ASSERT_EQ(snap.size(), cap);
    for (std::size_t i = 0; i < cap; ++i) {
      const std::uint64_t logical = 5 + i;  // the newest `cap` records
      EXPECT_EQ(snap[i].time, static_cast<sim::Nanos>(logical));
      EXPECT_EQ(snap[i].cpu, 1u);
      EXPECT_EQ(snap[i].gen, logical < cap ? 0 : 1);
    }
  };
  check_cpu1();
  // The neighbours' slots are their own: writing them leaves CPU 1 intact.
  for (const std::uint32_t cpu : {0u, 2u, 3u}) {
    rec.record(cpu, EventKind::kPass, 100 + cpu, cpu, 0);
    const auto snap = rec.snapshot(cpu);
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].time, static_cast<sim::Nanos>(100 + cpu));
  }
  check_cpu1();
}

TEST(TelemetryRecorder, ConcurrentWriterReaderOnSlabRing) {
  // Same seqlock check as TelemetryRing's, against a ring carved out of a
  // recorder's slab (a middle CPU, so its neighbours' slots surround it).
  telemetry::RecorderConfig cfg;
  cfg.ring_capacity = 256;
  cfg.cost_sample_every = 0;
  telemetry::FlightRecorder rec(3, cfg);
  check_concurrent_writer_reader(
      rec.ring(1).capacity(),
      [&](std::int64_t i) {
        rec.record(1, EventKind::kCustom, i, 0, i);
      },
      [&](std::uint64_t* torn) { return rec.ring(1).snapshot(torn); });
  EXPECT_EQ(rec.ring(1).written(), 200000u);
  EXPECT_TRUE(rec.snapshot(0).empty());
  EXPECT_TRUE(rec.snapshot(2).empty());
}

// ---------- histograms ----------

TEST(TelemetryHistogram, LogBucketsAndQuantiles) {
  using telemetry::LogHistogram;
  EXPECT_EQ(LogHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LogHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LogHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LogHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LogHistogram::bucket_lo(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_lo(4), 8u);

  LogHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Log-bucket interpolation is coarse; quantiles must be ordered, inside
  // the observed range, and in the right octave.
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 1000.0);

  // The fixed-bin sim::Histogram gained the same cumulative-walk quantile.
  sim::Histogram fixed(0.0, 100.0, 20);
  for (int v = 0; v < 100; ++v) fixed.add(v);
  EXPECT_NEAR(fixed.quantile(0.5), 50.0, 5.0);
  EXPECT_NEAR(fixed.quantile(0.9), 90.0, 5.0);
  fixed.add(-5.0);   // underflow resolves to lo
  EXPECT_EQ(fixed.quantile(0.0), 0.0);
}

// ---------- metrics registry ----------

TEST(TelemetryMetrics, ThreadSlackLatenessAndOverflow) {
  telemetry::MetricsRegistry reg(2, /*max_threads=*/2);
  reg.on_completion(0, 1, "a", -sim::micros(10));  // met, 10 us slack
  reg.on_completion(0, 1, "a", sim::micros(5));    // missed by 5 us
  reg.on_skipped(0, 1, "a", 3);                    // 3 whole windows gone
  reg.on_completion(1, 2, "b", -sim::micros(1));
  reg.on_completion(1, 3, "c", -sim::micros(1));   // third thread: dropped

  EXPECT_EQ(reg.cpu(0).completions, 2u);
  EXPECT_EQ(reg.cpu(0).misses, 4u);  // 1 late completion + 3 skipped
  EXPECT_EQ(reg.cpu(1).completions, 2u);
  EXPECT_EQ(reg.cpu(1).misses, 0u);

  const telemetry::ThreadMetrics* a = reg.thread(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name, "a");
  EXPECT_EQ(a->completions, 2u);
  EXPECT_EQ(a->misses, 4u);
  EXPECT_EQ(a->slack_ns.total(), 1u);
  EXPECT_EQ(a->slack_ns.max(), sim::micros(10));
  EXPECT_EQ(a->lateness_ns.total(), 1u);
  EXPECT_EQ(a->lateness_ns.max(), sim::micros(5));

  // Bounded registry: thread 3 overflowed (counted, not silently lost), but
  // its per-CPU counters still advanced.
  EXPECT_EQ(reg.thread(3), nullptr);
  EXPECT_EQ(reg.threads_dropped(), 1u);
  const auto sorted = reg.threads_sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0]->tid, 1u);
  EXPECT_EQ(sorted[1]->tid, 2u);
}

// ---------- SLO monitor ----------

TEST(SloMonitor, BurnRateWindowsAndAlertTransitions) {
  telemetry::SloSpec spec;
  spec.name = "workers";
  spec.thread_match = "w";
  spec.miss_budget = 0.1;
  spec.window_ns = sim::millis(1);
  spec.min_completions = 4;
  telemetry::SloMonitor mon({spec});

  std::vector<double> burns;
  mon.set_alert_fn(
      [&](std::size_t i, sim::Nanos, double burn) {
        EXPECT_EQ(i, 0u);
        burns.push_back(burn);
      });

  // Non-matching threads are invisible to the spec.
  mon.on_completion("other", true, sim::micros(10));
  EXPECT_FALSE(mon.burn_rate_for("other", sim::micros(10)).has_value());

  // 4 completions, 2 missed: miss fraction 0.5 vs budget 0.1 -> burn 5.
  for (int i = 0; i < 4; ++i) {
    mon.on_completion("w0", i < 2, sim::micros(100 + i));
  }
  ASSERT_EQ(burns.size(), 1u);  // one transition, not one alert per miss
  EXPECT_NEAR(burns[0], 5.0, 1e-9);
  EXPECT_EQ(mon.alerts(), 1u);
  EXPECT_NEAR(mon.burn_rate(0, sim::micros(104)), 5.0, 0.1);

  // Jump several windows ahead: both buckets clear, clean completions
  // drop the burn to zero and rearm the alert edge.
  for (int i = 0; i < 4; ++i) {
    mon.on_completion("w1", false, sim::millis(10) + i);
  }
  EXPECT_EQ(mon.alerts(), 1u);
  EXPECT_NEAR(mon.burn_rate(0, sim::millis(10) + 4), 0.0, 1e-9);

  // A second burst is a second transition.
  for (int i = 0; i < 4; ++i) {
    mon.on_completion("w0", true, sim::millis(30) + i);
  }
  EXPECT_EQ(mon.alerts(), 2u);
  ASSERT_EQ(burns.size(), 2u);

  const auto status = mon.status(sim::millis(30) + 5);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].spec->name, "workers");
  EXPECT_EQ(status[0].completions, 12u);
  EXPECT_EQ(status[0].misses, 6u);
  EXPECT_TRUE(status[0].alerting);
  EXPECT_EQ(status[0].alerts, 2u);
}

TEST(SloMonitor, SanitizesDegenerateSpecs) {
  telemetry::SloSpec bad;
  bad.name = "bad";
  bad.miss_budget = 0.0;
  bad.window_ns = -5;
  telemetry::SloMonitor mon({bad});
  EXPECT_EQ(mon.spec(0).window_ns, sim::millis(100));
  EXPECT_GT(mon.spec(0).miss_budget, 0.0);
  // All-clean traffic never divides by zero or alerts.
  for (int i = 0; i < 100; ++i) mon.on_completion("x", false, 1000 + i);
  EXPECT_EQ(mon.alerts(), 0u);
}

// ---------- system wiring ----------

TEST(TelemetrySystem, DisabledByDefaultIsNullPointerAndRecordsNothing) {
  System sys;  // default options: telemetry off
  EXPECT_FALSE(sys.telemetry().enabled());
  EXPECT_EQ(sys.kernel().telemetry(), nullptr);
  sys.boot();
  sys.spawn("w", rt_worker(rt::Constraints::periodic(
                     sim::millis(1), sim::micros(200), sim::micros(40))), 1);
  sys.run_for(sim::millis(10));
  EXPECT_EQ(sys.telemetry().recorder().written(), 0u);
  EXPECT_EQ(sys.telemetry().recorder().count(1, EventKind::kPass), 0u);
  EXPECT_EQ(sys.telemetry().metrics().cpu(1).completions, 0u);
}

TEST(TelemetrySystem, DisabledRecorderHoldsNoRings) {
  // Off means null all the way down: a default System (256-CPU phi) builds
  // the hub but not one ring, and every per-CPU accessor stays in bounds.
  System sys;
  telemetry::FlightRecorder& rec = sys.telemetry().recorder();
  EXPECT_EQ(rec.num_cpus(), 0u);
  for (const std::uint32_t cpu : {0u, 1u, 255u, 256u}) {
    EXPECT_TRUE(rec.snapshot(cpu).empty()) << "cpu " << cpu;
    EXPECT_EQ(rec.retained_kind_count(cpu, EventKind::kPass), 0u);
    EXPECT_EQ(rec.count(cpu, EventKind::kPass), 0u);
    EXPECT_THROW((void)rec.ring(cpu), std::out_of_range) << "cpu " << cpu;
    rec.record(cpu, EventKind::kCustom, 1, 0, 0);  // dropped, not indexed
  }
  EXPECT_TRUE(rec.snapshot_all().empty());
  EXPECT_EQ(rec.written(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  std::ostringstream os;
  telemetry::write_metrics_json(os, sys.telemetry(), sys.engine().now());
  EXPECT_NE(os.str().find("\"ring_capacity\": 0"), std::string::npos);

  // Enabled, the recorder has exactly one ring per CPU.
  System on(observed());
  EXPECT_EQ(on.telemetry().recorder().num_cpus(), 4u);
  EXPECT_EQ(on.telemetry().recorder().ring(3).capacity(),
            on.options().telemetry.recorder.ring_capacity);
}

TEST(TelemetrySystem, BitIdenticalScheduleOnVsOff) {
  // Telemetry is a pure host-side observer: with the same seed — and SMIs
  // left on so the stochastic path is exercised too — every simulated
  // quantity must match exactly between a telemetry-on and -off run.
  struct Fingerprint {
    std::uint64_t events = 0;
    sim::Nanos now = 0;
    std::uint64_t smis = 0;
    std::int64_t stolen = 0;
    std::map<std::string, std::vector<std::uint64_t>> threads;
    std::vector<std::uint64_t> passes;
    std::vector<std::uint64_t> switches;
  };
  auto run = [](bool telemetry_on) {
    System::Options o;
    o.spec = hw::MachineSpec::phi_small(4);
    o.seed = 1234;
    o.telemetry.enabled = telemetry_on;
    telemetry::SloSpec spec;
    spec.thread_match = "";  // match everything: exercise the SLO path too
    spec.name = "all";
    o.telemetry.slos.push_back(spec);
    System sys(std::move(o));
    sys.boot();
    sys.spawn("rt-a", rt_worker(rt::Constraints::periodic(
                          sim::millis(1), sim::micros(100), sim::micros(25))),
              1);
    sys.spawn("rt-b", rt_worker(rt::Constraints::periodic(
                          sim::millis(1), sim::micros(250), sim::micros(60))),
              2);
    sys.spawn("bg", std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), 3);
    sys.run_for(sim::millis(50));
    if (telemetry_on) {
      EXPECT_GT(sys.telemetry().recorder().written(), 1000u);
    }
    Fingerprint fp;
    fp.events = sys.engine().events_executed();
    fp.now = sys.engine().now();
    fp.smis = sys.machine().smi().stats().count;
    fp.stolen = sys.machine().smi().stats().total_stolen_ns;
    for (const nk::Thread* t : sys.kernel().live_threads()) {
      fp.threads[t->name] = {t->rt.arrivals, t->rt.completions, t->rt.misses,
                            t->dispatches,
                            static_cast<std::uint64_t>(t->total_cpu_ns)};
    }
    for (std::uint32_t c = 0; c < 4; ++c) {
      fp.passes.push_back(sys.sched(c).stats().passes);
      fp.switches.push_back(sys.kernel().executor(c).overheads().switches);
    }
    return fp;
  };
  const Fingerprint off = run(false);
  const Fingerprint on = run(true);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.now, on.now);
  EXPECT_EQ(off.smis, on.smis);
  EXPECT_EQ(off.stolen, on.stolen);
  EXPECT_EQ(off.passes, on.passes);
  EXPECT_EQ(off.switches, on.switches);
  EXPECT_EQ(off.threads, on.threads);
  EXPECT_GT(off.threads.size(), 2u);
}

TEST(TelemetrySystem, CapturesSchedulerEventsOnAllCpus) {
  // fig06-style: one periodic sweep thread per CPU with admission off, the
  // infeasible slice guarantees misses; every CPU's ring must carry the
  // full event vocabulary of its scheduler.
  System::Options o = observed(4);
  o.sched.admission_enabled = false;
  System sys(std::move(o));
  sys.boot();
  const sim::Nanos period = sim::micros(50);
  for (std::uint32_t c = 0; c < 4; ++c) {
    sys.spawn("sweep" + std::to_string(c),
              rt_worker(rt::Constraints::periodic(sim::millis(1), period,
                                                  period * 9 / 10)),
              c);
  }
  sys.run_for(sim::millis(30));

  const telemetry::FlightRecorder& rec = sys.telemetry().recorder();
  EXPECT_GT(rec.written(), 0u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    const telemetry::CpuMetrics& m = sys.telemetry().metrics().cpu(c);
    EXPECT_GT(rec.count(c, EventKind::kPass), 100u) << "cpu " << c;
    EXPECT_GT(rec.count(c, EventKind::kSwitch), 100u) << "cpu " << c;
    EXPECT_GT(rec.count(c, EventKind::kTimerArm), 100u) << "cpu " << c;
    EXPECT_EQ(rec.count(c, EventKind::kAdmitOk), 1u) << "cpu " << c;
    EXPECT_GT(m.completions, 100u) << "cpu " << c;
    EXPECT_GT(m.misses, 0u) << "cpu " << c;
    EXPECT_GT(m.pass_span_ns.count(), 0u) << "cpu " << c;
    EXPECT_GT(m.pass_span_ns.mean(), 0.0) << "cpu " << c;
    EXPECT_GT(m.effective_capacity, 0.0) << "cpu " << c;
    // The retained window (most recent history) still shows the kinds.
    EXPECT_GT(rec.retained_kind_count(c, EventKind::kSwitch), 0u);
    EXPECT_GT(rec.retained_kind_count(c, EventKind::kTimerArm), 0u);
    EXPECT_GT(rec.retained_kind_count(c, EventKind::kDeadlineMiss), 0u);
    for (const Record& r : rec.snapshot(c)) {
      EXPECT_EQ(r.cpu, c) << "record leaked into the wrong ring";
    }
  }
  // The scheduler's own miss counters and the metrics registry agree.
  for (const nk::Thread* t : sys.kernel().live_threads()) {
    if (t->rt.arrivals == 0) continue;
    const telemetry::ThreadMetrics* tm = sys.telemetry().metrics().thread(
        static_cast<std::uint32_t>(t->id));
    ASSERT_NE(tm, nullptr);
    EXPECT_EQ(tm->misses, t->rt.misses) << t->name;
  }
}

TEST(TelemetrySystem, MigrationEventsLandInBothRings) {
  System sys(observed(4));
  sys.boot();
  nk::Thread* t = sys.spawn(
      "mover", rt_worker(rt::Constraints::periodic(
                   sim::millis(1), sim::millis(1), sim::micros(300))), 1);
  sys.run_for(sim::millis(10));
  ASSERT_TRUE(t->is_realtime());
  ASSERT_TRUE(sys.sched(1).request_migration(*t, 2));
  sys.run_for(sim::millis(20));
  ASSERT_EQ(t->cpu, 2u);

  const telemetry::FlightRecorder& rec = sys.telemetry().recorder();
  EXPECT_EQ(rec.kind_count(EventKind::kMigrateRequest), 1u);
  EXPECT_EQ(rec.kind_count(EventKind::kMigrateOut), 1u);
  EXPECT_EQ(rec.kind_count(EventKind::kMigrateIn), 1u);
  EXPECT_EQ(rec.count(1, EventKind::kMigrateOut), 1u);
  EXPECT_EQ(rec.count(2, EventKind::kMigrateIn), 1u);
  EXPECT_EQ(rec.count(1, EventKind::kMigrateRequest), 1u);
  // The out record names the destination, the in record the source.
  bool saw_out = false;
  for (const Record& r : rec.snapshot(1)) {
    if (r.kind == EventKind::kMigrateOut) {
      saw_out = true;
      EXPECT_EQ(r.arg, 2);
      EXPECT_EQ(r.tid, static_cast<std::uint32_t>(t->id));
    }
  }
  bool saw_in = false;
  for (const Record& r : rec.snapshot(2)) {
    if (r.kind == EventKind::kMigrateIn) {
      saw_in = true;
      EXPECT_EQ(r.arg, 1);
    }
  }
  EXPECT_TRUE(saw_out);
  EXPECT_TRUE(saw_in);
}

/// An aperiodic thread that sleeps first, then computes forever.
std::unique_ptr<nk::FnBehavior> napper() {
  return std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::sleep(sim::millis(5));
        return nk::Action::compute(sim::micros(100));
      });
}

telemetry::MetricsSnapshot exported(System& sys) {
  std::ostringstream os;
  telemetry::write_metrics_json(os, sys.telemetry(), sys.engine().now());
  return telemetry::parse_metrics_snapshot(os.str());
}

TEST(TelemetrySystem, AperiodicRelocationCountsAsMigrationInOnDestination) {
  // Kernel::migrate_aperiodic leaves one kAperiodicMigrate record, on the
  // destination's ring (arg = the source): the thread moved in there, and
  // the source CPU records nothing.
  System sys(observed(4));
  sys.boot();
  nk::Thread* t = sys.spawn("nap", napper(), 1);
  sys.run_for(sim::millis(1));
  ASSERT_EQ(t->state, nk::Thread::State::kSleeping);
  ASSERT_TRUE(sys.kernel().migrate_aperiodic(t, 2));
  sys.run_for(sim::millis(10));
  ASSERT_EQ(t->cpu, 2u);

  const telemetry::FlightRecorder& rec = sys.telemetry().recorder();
  ASSERT_EQ(rec.kind_count(EventKind::kAperiodicMigrate), 1u);
  EXPECT_EQ(rec.count(2, EventKind::kAperiodicMigrate), 1u);
  const telemetry::MetricsSnapshot snap = exported(sys);
  ASSERT_TRUE(snap.ok) << snap.error;
  EXPECT_EQ(snap.values.at("cpu.2.migrations_in"), 1.0);
  EXPECT_EQ(snap.values.at("cpu.2.migrations_out"), 0.0);
  EXPECT_EQ(snap.values.at("cpu.1.migrations_in"), 0.0);
  EXPECT_EQ(snap.values.at("cpu.1.migrations_out"), 0.0);
}

TEST(TelemetrySystem, ExportedCpuCountersAreRecordCounts) {
  // Each per-CPU event counter of the metrics export counts records: on
  // rings that drop nothing it equals the number of its kinds in that
  // CPU's ring, and written() is the sum of every count.  The run covers
  // auto placement, a job-boundary migration, an aperiodic relocation and
  // thread exits (whose exit rebalances may migrate more).
  System::Options o = observed(4);
  o.telemetry.recorder.ring_capacity = 1 << 16;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* mover = sys.spawn(
      "mover", rt_worker(rt::Constraints::periodic(
                   sim::millis(1), sim::millis(1), sim::micros(300))), 1);
  nk::Thread* nap = sys.spawn("nap", napper(), 3);
  sys.run_for(sim::millis(2));
  ASSERT_TRUE(mover->is_realtime());
  ASSERT_TRUE(sys.sched(1).request_migration(*mover, 2));
  ASSERT_EQ(nap->state, nk::Thread::State::kSleeping);
  ASSERT_TRUE(sys.kernel().migrate_aperiodic(nap, 0));
  std::vector<nk::Thread*> finite;
  for (int i = 0; i < 4; ++i) {
    finite.push_back(sys.spawn_auto(
        "auto" + std::to_string(i),
        std::make_unique<nk::FnBehavior>(
            [](nk::ThreadCtx&, std::uint64_t step) {
              if (step < 20) return nk::Action::compute(sim::micros(100));
              return nk::Action::exit();
            }),
        rt::Constraints::periodic(sim::millis(1), sim::millis(1),
                                  sim::micros(100 + 50 * i))));
  }
  sys.run_for(sim::millis(30));

  const telemetry::FlightRecorder& rec = sys.telemetry().recorder();
  ASSERT_EQ(rec.dropped(), 0u);
  ASSERT_EQ(mover->cpu, 2u);
  ASSERT_GE(rec.kind_count(EventKind::kMigrateIn), 1u);
  ASSERT_EQ(rec.kind_count(EventKind::kAperiodicMigrate), 1u);
  ASSERT_GE(rec.kind_count(EventKind::kAdmitOk), 5u);
  for (const nk::Thread* t : finite) {
    EXPECT_TRUE(t->state == nk::Thread::State::kExited ||
                t->state == nk::Thread::State::kPooled)
        << t->name;
  }

  const telemetry::MetricsSnapshot snap = exported(sys);
  ASSERT_TRUE(snap.ok) << snap.error;
  const std::pair<const char*, std::vector<EventKind>> counters[] = {
      {"passes", {EventKind::kPass}},
      {"switches", {EventKind::kSwitch}},
      {"kicks", {EventKind::kKick}},
      {"timer_arms", {EventKind::kTimerArm}},
      {"admits_ok", {EventKind::kAdmitOk}},
      {"admits_rejected", {EventKind::kAdmitReject}},
      {"migrations_in", {EventKind::kMigrateIn, EventKind::kAperiodicMigrate}},
      {"migrations_out", {EventKind::kMigrateOut}},
      {"sheds", {EventKind::kShed}},
      {"restores", {EventKind::kRestore}},
  };
  std::uint64_t counted = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    std::map<EventKind, std::uint64_t> in_ring;
    for (const Record& r : rec.snapshot(c)) ++in_ring[r.kind];
    for (const auto& [field, kinds] : counters) {
      std::uint64_t n = 0;
      for (const EventKind k : kinds) n += in_ring[k];
      EXPECT_EQ(snap.values.at("cpu." + std::to_string(c) + "." + field),
                static_cast<double>(n))
          << "cpu " << c << " " << field;
    }
    for (std::size_t k = 0; k < telemetry::kEventKindCount; ++k) {
      const auto kind = static_cast<EventKind>(k);
      EXPECT_EQ(rec.count(c, kind), in_ring[kind])
          << "cpu " << c << " " << telemetry::event_kind_name(kind);
      counted += rec.count(c, kind);
    }
  }
  EXPECT_EQ(rec.written(), counted);
}

TEST(TelemetrySloSystem, MissStormFiresAlertAndAuditInvariant) {
  System::Options o = observed(2);
  o.audit.enabled = true;  // accumulate mode; FORCE builds throw instead
  o.sched.admission_enabled = false;
  telemetry::SloSpec spec;
  spec.name = "sweep-slo";
  spec.thread_match = "sweep";
  spec.miss_budget = 0.001;
  spec.window_ns = sim::millis(5);
  o.telemetry.slos.push_back(spec);
  System sys(std::move(o));
  sys.boot();
  const sim::Nanos period = sim::micros(50);
  const std::uint64_t violations =
      run_counting(sys, audit::Invariant::kSloBudget, [&] {
        sys.spawn("sweep",
                  rt_worker(rt::Constraints::periodic(sim::millis(1), period,
                                                      period * 9 / 10)),
                  1);
        sys.run_for(sim::millis(40));
      });
  EXPECT_GE(violations, 1u);
  EXPECT_GE(sys.telemetry().slo().alerts(), 1u);
  EXPECT_GE(sys.telemetry().recorder().kind_count(EventKind::kSloAlert), 1u);
  const auto status = sys.telemetry().slo().status(sys.engine().now());
  ASSERT_EQ(status.size(), 1u);
  EXPECT_GT(status[0].misses, 0u);
  EXPECT_GE(status[0].burn_rate, 1.0);
}

TEST(TelemetrySystem, ReportCarriesTelemetrySections) {
  System::Options o = observed(2);
  telemetry::SloSpec spec;
  spec.name = "workers";
  spec.thread_match = "w";
  spec.miss_budget = 0.5;
  o.telemetry.slos.push_back(spec);
  System sys(std::move(o));
  sys.boot();
  sys.spawn("w0", rt_worker(rt::Constraints::periodic(
                      sim::millis(1), sim::micros(200), sim::micros(40))), 1);
  sys.run_for(sim::millis(20));
  std::ostringstream os;
  rt::print_report(sys, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("eff-cap"), std::string::npos);       // per-CPU column
  EXPECT_NE(s.find("slo-burn"), std::string::npos);      // per-thread column
  EXPECT_NE(s.find("telemetry:"), std::string::npos);    // recorder summary
  EXPECT_NE(s.find("workers"), std::string::npos);       // SLO status line

  // The dedicated printer stays silent when the subsystem is off.
  System quiet;
  quiet.boot();
  std::ostringstream qs;
  rt::print_telemetry_report(quiet, qs);
  EXPECT_TRUE(qs.str().empty());
}

// ---------- export ----------

TEST(TelemetryExport, ChromeTraceRoundTripsThroughParser) {
  System sys(observed(2));
  sys.boot();
  sys.spawn("w0", rt_worker(rt::Constraints::periodic(
                      sim::millis(1), sim::micros(200), sim::micros(40))), 1);
  sys.run_for(sim::millis(20));

  std::ostringstream os;
  telemetry::write_chrome_trace(os, sys.telemetry());
  const std::string json = os.str();
  const telemetry::ParsedTrace parsed = telemetry::parse_chrome_trace(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_FALSE(parsed.events.empty());

  std::size_t instants = 0, spans = 0, counters = 0;
  for (const telemetry::ParsedEvent& e : parsed.events) {
    EXPECT_GE(e.pid, 1);  // pid = cpu + 1: Perfetto dislikes pid 0
    EXPECT_LE(e.pid, 2);
    if (e.phase == "i") {
      ++instants;
      // µs timestamp and the exact-ns arg agree to rounding.
      EXPECT_NEAR(e.ts_us * 1000.0, static_cast<double>(e.t_ns), 1.0);
    } else if (e.phase == "X") {
      ++spans;
      EXPECT_GE(e.dur_us, 0.0);
    } else if (e.phase == "C") {
      ++counters;
      EXPECT_EQ(e.name, "effective-capacity");
    }
  }
  EXPECT_EQ(instants, sys.telemetry().recorder().snapshot_all().size());
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(counters, 2u);  // one capacity counter per CPU

  // Garbage inputs fail gracefully instead of crashing.
  EXPECT_FALSE(telemetry::parse_chrome_trace("{}").ok);
  EXPECT_FALSE(telemetry::parse_chrome_trace(
                   R"({"traceEvents": [{"name":"x")")
                   .ok);
}

TEST(TelemetryExport, SimTraceAgreesWithExporterAndReplayOracle) {
  // Satellite: the machine-level sim::Trace adapts into the same exporter,
  // and the events it carries are exactly the schedule the EDF replay
  // oracle validates — tying the new observability path to the existing
  // ground truth.
  System::Options o = observed(2);
  o.audit.enabled = true;
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  nk::Thread* a = sys.spawn(
      "a", rt_worker(rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                               sim::micros(20))), 1);
  sys.run_for(sim::millis(30));

  // Oracle first: the trace describes a valid EDF schedule.
  const std::vector<audit::ReplayTask> tasks = {
      {a->id, a->constraints, a->rt.gamma}};
  const audit::ReplayConfig cfg = audit::replay_config_for(sys.machine().spec());
  audit::ReplayResult r = audit::replay_edf(sys.machine().trace(), 1, tasks,
                                            cfg, sys.engine().now());
  for (const auto& d : r.divergences) {
    ADD_FAILURE() << "t=" << d.time << "ns: " << d.detail;
  }
  EXPECT_TRUE(r.ok());

  // Adapt -> export -> parse: the switch stream survives byte-exact.
  const auto records = telemetry::from_sim_trace(sys.machine().trace(), 1);
  ASSERT_FALSE(records.empty());
  std::ostringstream os;
  telemetry::write_chrome_trace(os, records);
  const telemetry::ParsedTrace parsed = telemetry::parse_chrome_trace(os.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;

  const auto sim_switches = sys.machine().trace().filter(sim::TraceKind::kSwitch, 1);
  std::vector<const telemetry::ParsedEvent*> parsed_switches;
  for (const telemetry::ParsedEvent& e : parsed.events) {
    if (e.phase == "i" && e.name == "switch") parsed_switches.push_back(&e);
  }
  ASSERT_EQ(parsed_switches.size(), sim_switches.size());
  ASSERT_GT(parsed_switches.size(), 100u);
  for (std::size_t i = 0; i < sim_switches.size(); ++i) {
    EXPECT_EQ(parsed_switches[i]->t_ns, sim_switches[i].time);
    EXPECT_EQ(parsed_switches[i]->tid, sim_switches[i].value);
  }
  // The telemetry recorder's own switch stream and the machine trace agree
  // on volume: the two observers watched the same schedule.
  EXPECT_EQ(sys.telemetry().recorder().kind_count(EventKind::kSwitch),
            [&] {
              std::uint64_t n = 0;
              for (std::uint32_t c = 0; c < 2; ++c) {
                n += sys.machine().trace().filter(sim::TraceKind::kSwitch, c)
                         .size();
              }
              return n;
            }());
}

TEST(TelemetryExport, MetricsJsonIsWellFormed) {
  System::Options o = observed(2);
  telemetry::SloSpec spec;
  spec.name = "w-slo";
  spec.thread_match = "w";
  o.telemetry.slos.push_back(spec);
  System sys(std::move(o));
  sys.boot();
  sys.spawn("w\"quoted\"", rt_worker(rt::Constraints::periodic(
                               sim::millis(1), sim::micros(200),
                               sim::micros(40))), 1);
  sys.run_for(sim::millis(20));

  std::ostringstream os;
  telemetry::write_metrics_json(os, sys.telemetry(), sys.engine().now());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"hrt-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"cpus\":"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":"), std::string::npos);
  EXPECT_NE(json.find("\"slos\":"), std::string::npos);
  EXPECT_NE(json.find("\"recorder\":"), std::string::npos);
  EXPECT_NE(json.find("w\\\"quoted\\\""), std::string::npos);  // escaping
  // Structurally balanced (the exporter never emits braces in strings
  // except escaped quotes, which the check above just verified).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

/// The metrics document as the stream-formatted exporter printed it:
/// every number through a default-formatted std::ostream, each per-CPU
/// event counter a count of the recorder's records (a relocation is a
/// migration in, on the destination that holds its record).
std::string ostream_metrics_json(const telemetry::Telemetry& tel,
                                 sim::Nanos now) {
  auto esc = [](std::ostream& os, std::string_view s) {
    for (const char c : s) {
      if (c == '"') {
        os << "\\\"";
      } else if (c == '\\') {
        os << "\\\\";
      } else if (c == '\n') {
        os << "\\n";
      } else if (c == '\t') {
        os << "\\t";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        os << buf;
      } else {
        os << c;
      }
    }
  };
  auto hist = [](std::ostream& os, const telemetry::LogHistogram& h) {
    os << "{\"count\": " << h.total() << ", \"min\": " << h.min()
       << ", \"mean\": " << h.mean() << ", \"p50\": " << h.quantile(0.50)
       << ", \"p90\": " << h.quantile(0.90)
       << ", \"p99\": " << h.quantile(0.99) << ", \"max\": " << h.max()
       << "}";
  };
  const telemetry::MetricsRegistry& m = tel.metrics();
  const telemetry::FlightRecorder& rec = tel.recorder();
  std::ostringstream os;
  os << "{\n  \"schema\": \"hrt-metrics-v1\",\n  \"now_ns\": " << now
     << ",\n  \"cpus\": [\n";
  for (std::uint32_t c = 0; c < m.num_cpus(); ++c) {
    const telemetry::CpuMetrics& cm = m.cpu(c);
    auto n = [&](EventKind k) { return rec.count(c, k); };
    os << "    {\"cpu\": " << c << ", \"passes\": " << n(EventKind::kPass)
       << ", \"switches\": " << n(EventKind::kSwitch)
       << ", \"kicks\": " << n(EventKind::kKick)
       << ", \"timer_arms\": " << n(EventKind::kTimerArm)
       << ", \"admits_ok\": " << n(EventKind::kAdmitOk)
       << ", \"admits_rejected\": " << n(EventKind::kAdmitReject)
       << ", \"completions\": " << cm.completions
       << ", \"misses\": " << cm.misses << ", \"migrations_in\": "
       << n(EventKind::kMigrateIn) + n(EventKind::kAperiodicMigrate)
       << ", \"migrations_out\": " << n(EventKind::kMigrateOut)
       << ", \"sheds\": " << n(EventKind::kShed)
       << ", \"restores\": " << n(EventKind::kRestore)
       << ", \"pass_span_ns\": {\"count\": " << cm.pass_span_ns.count()
       << ", \"mean\": " << cm.pass_span_ns.mean()
       << ", \"max\": " << cm.pass_span_ns.max() << "}"
       << ", \"effective_capacity\": " << cm.effective_capacity << "}"
       << (c + 1 < m.num_cpus() ? ",\n" : "\n");
  }
  os << "  ],\n  \"threads\": [\n";
  const auto threads = m.threads_sorted();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const telemetry::ThreadMetrics& tm = *threads[i];
    os << "    {\"tid\": " << tm.tid << ", \"name\": \"";
    esc(os, tm.name);
    os << "\", \"completions\": " << tm.completions
       << ", \"misses\": " << tm.misses << ", \"slack_ns\": ";
    hist(os, tm.slack_ns);
    os << ", \"lateness_ns\": ";
    hist(os, tm.lateness_ns);
    os << "}" << (i + 1 < threads.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"threads_dropped\": " << m.threads_dropped()
     << ",\n  \"slos\": [\n";
  const auto slos = tel.slo().status(now);
  for (std::size_t i = 0; i < slos.size(); ++i) {
    const telemetry::SloStatus& st = slos[i];
    os << "    {\"name\": \"";
    esc(os, st.spec->name);
    os << "\", \"thread_match\": \"";
    esc(os, st.spec->thread_match);
    os << "\", \"miss_budget\": " << st.spec->miss_budget
       << ", \"window_ns\": " << st.spec->window_ns
       << ", \"completions\": " << st.completions
       << ", \"misses\": " << st.misses << ", \"burn_rate\": " << st.burn_rate
       << ", \"alerting\": " << (st.alerting ? "true" : "false")
       << ", \"alerts\": " << st.alerts << "}"
       << (i + 1 < slos.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"recorder\": {\"written\": " << rec.written()
     << ", \"dropped\": " << rec.dropped() << ", \"ring_capacity\": "
     << (rec.num_cpus() > 0 ? rec.ring(0).capacity() : 0)
     << ", \"sampled_cost_ns\": {\"samples\": "
     << rec.sampled_cost_ns().count()
     << ", \"mean\": " << rec.sampled_cost_ns().mean() << "}}\n}\n";
  return os.str();
}

TEST(TelemetryExport, MetricsJsonPrintsNumbersAsOstreamDoes) {
  // %.6g's rounding and its fixed/exponent switch, in gauges, pass spans,
  // histograms and SLO fields, plus names that need every escape kind.
  auto ostream_text = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  EXPECT_EQ(ostream_text(0.0), "0");
  EXPECT_EQ(ostream_text(0.79), "0.79");
  EXPECT_EQ(ostream_text(1e-7), "1e-07");
  EXPECT_EQ(ostream_text(123456789.0), "1.23457e+08");
  EXPECT_EQ(ostream_text(1e21), "1e+21");

  telemetry::Config cfg;
  cfg.enabled = true;
  cfg.recorder.ring_capacity = 8;
  telemetry::SloSpec spec;
  spec.name = "slo \"q\" \\ \x01";
  spec.thread_match = "w";
  spec.miss_budget = 1e-7;
  spec.window_ns = 123456789;
  spec.min_completions = 1;
  cfg.slos.push_back(spec);
  telemetry::Telemetry tel(3, cfg);
  const std::string name = "w\"q\\\t\n\x1f";
  tel.set_effective_capacity(0, 0.79);
  tel.set_effective_capacity(1, 1e21);
  tel.set_effective_capacity(2, 1e-7);
  tel.on_pass_span(0, 1e-7);
  tel.on_pass_span(1, 123456789.0);
  tel.on_pass_span(2, 1e21);
  tel.on_pass_span(2, 0.79);
  // Records of every exported kind, more than CPU 1's 8-slot ring holds:
  // the counters count records, dropped ones included.
  telemetry::FlightRecorder& rec = tel.recorder();
  for (int i = 0; i < 11; ++i) rec.record(1, EventKind::kPass, i, 0, 0);
  for (const EventKind k :
       {EventKind::kSwitch, EventKind::kKick, EventKind::kTimerArm,
        EventKind::kAdmitOk, EventKind::kAdmitReject, EventKind::kMigrateIn,
        EventKind::kMigrateOut, EventKind::kAperiodicMigrate,
        EventKind::kShed, EventKind::kRestore}) {
    rec.record(0, k, 20, 7, 1);
    rec.record(2, k, 30, 9, 0);
    rec.record(2, k, 40, 9, 0);
  }
  ASSERT_GT(rec.dropped(), 0u);
  tel.on_completion(1, 1000, 7, name, 0);             // slack 0
  tel.on_completion(1, 2000, 7, name, -123456789);    // slack 1.23457e+08
  tel.on_completion(2, 3000, 9, "w.late", 987654321);  // lateness
  tel.on_completion(2, 4000, 9, "w.late", -1);

  std::ostringstream os;
  telemetry::write_metrics_json(os, tel, 5000);
  const std::string json = os.str();
  EXPECT_EQ(json, ostream_metrics_json(tel, 5000));
  for (const char* text : {"\"effective_capacity\": 0.79}",
                           "\"effective_capacity\": 1e+21}",
                           "\"effective_capacity\": 1e-07}",
                           "\"mean\": 1.23457e+08", "\"miss_budget\": 1e-07",
                           "{\"cpu\": 1, \"passes\": 11, \"switches\": 0,",
                           "\"migrations_in\": 2, \"migrations_out\": 1,",
                           "\"migrations_in\": 4, \"migrations_out\": 2,",
                           R"(w\"q\\\t\n\u001f)", R"(slo \"q\" \\ \u0001)"}) {
    EXPECT_NE(json.find(text), std::string::npos) << text;
  }
}

// ---------- satellite: auto-derived group SLOs ----------

TEST(TelemetrySloSystem, GroupAdmissionDerivesSloSpec) {
  System::Options o = observed(4);
  o.telemetry.group_slo_budget = 0.02;
  o.telemetry.group_slo_windows = 50;
  System sys(std::move(o));
  sys.boot();
  const auto c = rt::Constraints::periodic(sim::millis(2), sim::millis(1),
                                           sim::micros(150));
  const auto members = sys.spawn_group_auto(
      "team", 3, c,
      [](std::uint32_t) { return std::make_unique<nk::BusyLoopBehavior>(
                              sim::micros(100)); });
  ASSERT_EQ(members.size(), 3u);
  EXPECT_FALSE(sys.telemetry().slo().has("group:team"))
      << "spec must appear at commit, not at spawn";
  sys.run_for(sim::millis(40));

  // The commit step of the group admission protocol derived one spec from
  // the admitted constraints: window = 50 periods, prefix "team.".
  ASSERT_TRUE(sys.telemetry().slo().has("group:team"));
  const auto status = sys.telemetry().slo().status(sys.engine().now());
  const telemetry::SloStatus* st = nullptr;
  for (const auto& s : status) {
    if (s.spec->name == "group:team") st = &s;
  }
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->spec->thread_match, "team.");
  EXPECT_DOUBLE_EQ(st->spec->miss_budget, 0.02);
  EXPECT_EQ(st->spec->window_ns, 50 * c.period);
  // The derived spec tracks the members' completions and stays quiet on a
  // feasible group.
  EXPECT_GT(st->completions, 50u);
  EXPECT_EQ(st->misses, 0u);
  EXPECT_FALSE(st->alerting);
  // Idempotent under churn: only one spec per group name ever exists.
  std::size_t team_specs = 0;
  for (const auto& s : status) {
    if (s.spec->name == "group:team") ++team_specs;
  }
  EXPECT_EQ(team_specs, 1u);
}

}  // namespace
}  // namespace hrt
