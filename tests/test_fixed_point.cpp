// Q32.32 fixed-point conversions, the lock-free AdmissionWord, and the
// admission fast path's conservative-soundness contract: a fast-path admit
// must imply the slow-path (double-arithmetic) answer — spurious rejects are
// allowed, spurious admits never (docs/API.md "Lock-free admission fast
// path").  The *Concurrency suites run under the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "global/ledger.hpp"
#include "nautilus/behavior.hpp"
#include "rt/fixed_point.hpp"
#include "rt/system.hpp"

namespace hrt {
namespace {

using rt::fp::AdmissionWord;
using rt::fp::from_double_ceil;
using rt::fp::from_double_floor;
using rt::fp::kMaxRaw;
using rt::fp::kOne;
using rt::fp::kUlp;
using rt::fp::Raw;
using rt::fp::sat_add;
using rt::fp::to_double;

// ---------- conversions ----------

TEST(FixedPoint, ZeroNegativeAndNanMapToZero) {
  EXPECT_EQ(from_double_ceil(0.0), 0u);
  EXPECT_EQ(from_double_ceil(-1.5), 0u);
  EXPECT_EQ(from_double_ceil(std::nan("")), 0u);
  EXPECT_EQ(from_double_floor(0.0), 0u);
  EXPECT_EQ(from_double_floor(-0.25), 0u);
}

TEST(FixedPoint, ExactDyadicsConvertExactly) {
  EXPECT_EQ(from_double_ceil(1.0), kOne);
  EXPECT_EQ(from_double_floor(1.0), kOne);
  EXPECT_EQ(from_double_ceil(0.5), kOne / 2);
  EXPECT_EQ(from_double_floor(0.5), kOne / 2);
  EXPECT_DOUBLE_EQ(to_double(kOne), 1.0);
  EXPECT_DOUBLE_EQ(to_double(kOne / 4), 0.25);
}

TEST(FixedPoint, CeilNeverUnderstatesFloorNeverOverstates) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 4.0);
  for (int i = 0; i < 10000; ++i) {
    const double u = dist(rng);
    const double up = to_double(from_double_ceil(u));
    const double down = to_double(from_double_floor(u));
    EXPECT_GE(up, u);
    EXPECT_LE(down, u);
    EXPECT_LE(up - u, kUlp);
    EXPECT_LE(u - down, kUlp);
  }
}

TEST(FixedPoint, DegenerateSentinelSaturates) {
  EXPECT_EQ(from_double_ceil(rt::fp::kSaturationThreshold), kMaxRaw);
  EXPECT_EQ(from_double_floor(1.0e300), kMaxRaw);
  // Saturated demand can never fit under a real capacity word.
  EXPECT_GT(from_double_ceil(rt::kDegenerateUtilization),
            from_double_floor(4096.0));
}

TEST(FixedPoint, SatAddSaturatesInsteadOfWrapping) {
  EXPECT_EQ(sat_add(1, 2), 3u);
  EXPECT_EQ(sat_add(kMaxRaw, 1), kMaxRaw);
  EXPECT_EQ(sat_add(kMaxRaw - 5, 10), kMaxRaw);
  EXPECT_EQ(sat_add(kMaxRaw, kMaxRaw), kMaxRaw);
}

// ---------- AdmissionWord semantics ----------

TEST(AdmissionWord, TryAdmitExactBoundary) {
  AdmissionWord w;
  const Raw cap = from_double_floor(1.0);
  EXPECT_TRUE(w.try_admit(cap, cap));  // exactly full is admissible
  EXPECT_EQ(w.raw(), cap);
  EXPECT_FALSE(w.try_admit(1, cap));  // one raw ulp over is not
  EXPECT_EQ(w.raw(), cap);            // failed admit changed nothing
}

TEST(AdmissionWord, ReleaseClampsAtZero) {
  AdmissionWord w;
  w.add(from_double_ceil(0.25));
  w.release(from_double_ceil(0.75));  // over-release clamps at zero
  EXPECT_EQ(w.raw(), 0u);
}

TEST(AdmissionWord, AddAccumulatesExactly) {
  AdmissionWord w;
  const Raw q = from_double_ceil(0.3);
  for (int i = 0; i < 100; ++i) w.add(q);
  EXPECT_EQ(w.raw(), 100 * q);  // integer accumulation is exact
  for (int i = 0; i < 100; ++i) w.release(q);
  EXPECT_EQ(w.raw(), 0u);
}

// ---------- concurrency (TSan CI job) ----------

TEST(AdmissionWordConcurrency, TryAdmitNeverOverCommits) {
  AdmissionWord w;
  const Raw quantum = kOne / 128;   // divides kOne exactly
  const Raw cap = kOne;             // room for exactly 128
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> workers;
  workers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (w.try_admit(quantum, cap)) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(admitted.load(), 128u);    // exactly capacity/quantum admits won
  EXPECT_EQ(w.raw(), cap);             // word sits exactly at capacity
  EXPECT_LE(w.raw(), cap);             // and never past it
}

TEST(AdmissionWordConcurrency, AdmitReleaseChurnBalances) {
  AdmissionWord w;
  const Raw quantum = kOne / 64;
  std::vector<std::thread> workers;
  workers.reserve(6);
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        w.add(quantum);
        w.release(quantum);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(w.raw(), 0u);
}

TEST(LedgerConcurrency, ConcurrentFeedsAndSnapshotsStayCoherent) {
  global::UtilizationLedger ledger(4, 0.79);
  const Raw q = from_double_ceil(0.01);
  const Raw calm = from_double_floor(0.79);
  const Raw degraded = from_double_floor(0.5);
  std::vector<std::thread> writers;
  writers.reserve(5);
  for (std::uint32_t c = 0; c < 4; ++c) {
    writers.emplace_back([&ledger, c, q] {
      for (int i = 0; i < 3000; ++i) {
        ledger.on_admit_raw(c, q);
        if (i % 2 == 1) ledger.on_release_raw(c, q);
      }
    });
  }
  // The resilience controller's publication: each CPU's capacity and storm
  // flag, rewritten while the schedulers feed the committed words.
  writers.emplace_back([&ledger] {
    for (std::uint32_t i = 0; i < 3000; ++i) {
      ledger.set_capacity(i % 4, i % 2 == 0 ? 0.5 : 0.79);
      ledger.set_storm_hit(i % 4, i % 2 == 0);
    }
  });
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (std::uint32_t c = 0; c < 4; ++c) {
        // Acquire-loaded snapshot: headroom is always within the physical
        // range even while the owner CPU is CAS-hammering the word.
        EXPECT_GE(ledger.headroom(c), 0.0);
        EXPECT_LE(ledger.committed_raw(c), from_double_ceil(3000 * 0.01));
        const Raw cap = ledger.capacity_raw(c);
        EXPECT_TRUE(cap == calm || cap == degraded) << cap;
        (void)ledger.storm_hit(c);
      }
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  for (std::uint32_t c = 0; c < 4; ++c) {
    // 3000 admits, 1500 releases of the same quantum: exactly 1500 held.
    EXPECT_EQ(ledger.committed_raw(c), 1500 * q);
    // The last publication to even CPUs was degraded and storm-hit.
    EXPECT_EQ(ledger.capacity_raw(c), c % 2 == 0 ? degraded : calm);
    EXPECT_EQ(ledger.storm_hit(c), c % 2 == 0);
  }
}

// ---------- 10k-spec randomized fuzz: fast path vs slow path ----------
//
// Two identical systems differing only in Config::fast_admission run the
// same 10k-operation reserve/cancel churn of periodic and sporadic specs.
// Invariants:
//   (1) zero spurious fast admits — whenever the fast word probe says
//       "admit", the slow analysis on the identically-churned system
//       agrees;
//   (2) decision equivalence — because a fast-path reject falls back to
//       the slow analysis, the *final* admit decision is identical with
//       the fast path on and off, so ablating the flag only changes cost;
//   (3) one admission test — a one-spec reserve_batch on a parked thread
//       (the spawn_batch path) reaches the same verdict as
//       reserve_constraints, on both systems.

System::Options fuzz_options(bool fast) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(1);
  o.spec.smi.enabled = false;
  o.audit.enabled = true;
  o.sched.fast_admission = fast;
  return o;
}

TEST(AdmissionFastPathFuzz, TenThousandSpecsZeroSpuriousAdmits) {
  System fast_sys(fuzz_options(true));
  System slow_sys(fuzz_options(false));
  fast_sys.boot();
  slow_sys.boot();

  constexpr int kThreads = 48;
  std::vector<nk::Thread*> ft, st;
  auto mk = [] {
    return std::make_unique<nk::BusyLoopBehavior>(sim::micros(100));
  };
  for (int i = 0; i < kThreads; ++i) {
    ft.push_back(fast_sys.spawn("f" + std::to_string(i), mk(), 0));
    st.push_back(slow_sys.spawn("s" + std::to_string(i), mk(), 0));
  }
  // Never enqueued, as spawn_batch's threads are before their commit.
  nk::Thread* fparked = fast_sys.kernel().create_thread_parked("fp", mk(), 0);
  nk::Thread* sparked = slow_sys.kernel().create_thread_parked("sp", mk(), 0);
  auto batch_verdict = [](System& sys, nk::Thread* parked,
                          const rt::Constraints& c) {
    const bool ok = sys.sched(0).reserve_batch({{parked, c}});
    if (ok) sys.sched(0).cancel_reservation(*parked);
    return ok;
  };

  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<sim::Nanos> period_us(50, 5000);
  std::uniform_int_distribution<int> pick(0, kThreads - 1);
  std::uniform_int_distribution<int> op(0, 9);

  std::uint64_t admits = 0, rejects = 0, fast_true = 0;
  std::uint64_t sporadic_admits = 0, sporadic_rejects = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const int i = pick(rng);
    const int roll = op(rng);
    if (roll < 2) {
      // Churn: drop a reservation (identically on both systems).
      fast_sys.sched(0).cancel_reservation(*ft[i]);
      slow_sys.sched(0).cancel_reservation(*st[i]);
      continue;
    }
    const sim::Nanos tau = sim::micros(period_us(rng));
    rt::Constraints c;
    if (roll < 4) {
      // Sporadic: density up to 1/4 against the 0.10 reservation.
      std::uniform_int_distribution<sim::Nanos> size_ns(1, tau / 4);
      c = rt::Constraints::sporadic(0, size_ns(rng), tau);
    } else {
      std::uniform_int_distribution<sim::Nanos> slice_ns(1, tau);
      c = rt::Constraints::periodic(0, tau, slice_ns(rng));
    }

    const auto fast_view = fast_sys.sched(0).fast_path_decision(c);
    if (fast_view.has_value() && *fast_view) {
      ++fast_true;
      // Invariant (1): a fast admit is always confirmed by the slow path.
      ASSERT_TRUE(slow_sys.sched(0).probe_admission(c))
          << "spurious fast admit at iter " << iter << " for u="
          << c.utilization();
    }
    // reserve_constraints drops the thread's old hold before it tests, so
    // the batch comparison below runs without it too.
    fast_sys.sched(0).cancel_reservation(*ft[i]);
    slow_sys.sched(0).cancel_reservation(*st[i]);
    const bool fb = batch_verdict(fast_sys, fparked, c);
    const bool sb = batch_verdict(slow_sys, sparked, c);
    const bool a = fast_sys.sched(0).reserve_constraints(*ft[i], c);
    const bool b = slow_sys.sched(0).reserve_constraints(*st[i], c);
    // Invariant (2): final decisions identical (fallback covers rejects).
    ASSERT_EQ(a, b) << "decision divergence at iter " << iter << " for u="
                    << c.utilization();
    // Invariant (3): the batch path agrees with the single-spec path.
    ASSERT_EQ(fb, a) << "batch verdict divergence (fast) at iter " << iter
                     << " for u=" << c.utilization();
    ASSERT_EQ(sb, b) << "batch verdict divergence (slow) at iter " << iter
                     << " for u=" << c.utilization();
    (a ? admits : rejects) += 1;
    if (c.cls == rt::ConstraintClass::kSporadic) {
      (a ? sporadic_admits : sporadic_rejects) += 1;
    }
  }
  // The run must actually exercise both outcomes, both classes and the
  // fast word.
  EXPECT_GT(admits, 100u);
  EXPECT_GT(rejects, 100u);
  EXPECT_GT(sporadic_admits, 100u);
  EXPECT_GT(sporadic_rejects, 100u);
  EXPECT_GT(fast_true, 0u);
  EXPECT_GT(fast_sys.sched(0).stats().fast_admits, 0u);
  EXPECT_EQ(slow_sys.sched(0).stats().fast_admits, 0u);
}

// The BSP sweeps (Figs. 13-16) reach sigma/tau = 90 % under the 4 % + 5 %
// reservations of bench/bsp_common.hpp, which leave an RT budget of
// 0.99 - 0.04 - 0.05 = 0.8999999999999999 in doubles.  The word demand
// ceil(0.9 * 2^32) is one quantum above the floored budget, so the fast
// path rejects and the exact slow path is what admits the 90 % cell.
TEST(AdmissionFastPath, NinetyPercentBspCellFallsBackToSlowPath) {
  System::Options o = fuzz_options(true);
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  System sys(std::move(o));
  sys.boot();
  rt::LocalScheduler& s = sys.sched(0);
  ASSERT_EQ(s.effective_rt_availability(), 0.8999999999999999);
  EXPECT_EQ(from_double_ceil(0.9), Raw{3865470567});
  EXPECT_EQ(from_double_floor(s.effective_rt_availability()),
            Raw{3865470566});

  const auto at90 =
      rt::Constraints::periodic(0, sim::micros(1000), sim::micros(900));
  EXPECT_EQ(s.fast_path_decision(at90), std::optional<bool>(false));
  EXPECT_TRUE(s.probe_admission(at90));
  EXPECT_EQ(s.stats().fast_fallbacks, 1u);
  EXPECT_EQ(s.stats().fast_admits, 0u);

  const auto at89 =
      rt::Constraints::periodic(0, sim::micros(1000), sim::micros(890));
  EXPECT_EQ(s.fast_path_decision(at89), std::optional<bool>(true));
  EXPECT_TRUE(s.probe_admission(at89));
  EXPECT_EQ(s.stats().fast_admits, 1u);
  EXPECT_EQ(s.stats().fast_fallbacks, 1u);
}

}  // namespace
}  // namespace hrt
