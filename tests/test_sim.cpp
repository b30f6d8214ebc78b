// Unit tests for the simulation core: time conversion, event engine,
// deterministic RNG, statistics, histogram, scope analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hw/machine_spec.hpp"
#include "sim/engine.hpp"
#include "sim/histogram.hpp"
#include "sim/rng.hpp"
#include "sim/scope.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hrt::sim {
namespace {

// ---------- Frequency ----------

TEST(Frequency, RoundTripAtPhiClock) {
  const Frequency f(1'300'000'000);
  EXPECT_EQ(f.cycles_to_ns(1'300'000'000), kNanosPerSecond);
  EXPECT_EQ(f.ns_to_cycles(kNanosPerSecond), 1'300'000'000);
  EXPECT_EQ(f.ns_to_cycles(micros(10)), 13'000);  // the paper's 10us = 13k cy
}

TEST(Frequency, FloorConversionNeverLate) {
  const Frequency f(1'300'000'000);
  for (Nanos ns = 1; ns < 1000; ns += 7) {
    const Cycles c = f.ns_to_cycles_floor(ns);
    EXPECT_LE(f.cycles_to_ns(c), ns + 1);  // floor never overshoots
  }
}

TEST(Frequency, CeilConversionCoversCycles) {
  const Frequency f(2'200'000'000);
  for (Cycles c = 1; c < 10000; c += 97) {
    EXPECT_GE(f.ns_to_cycles(f.cycles_to_ns_ceil(c)), c);
  }
}

TEST(Frequency, LargeValuesNoOverflow) {
  const Frequency f(2'200'000'000);
  const Nanos day = seconds(86'400);
  const Cycles c = f.ns_to_cycles(day);
  EXPECT_GT(c, 0);
  EXPECT_NEAR(static_cast<double>(f.cycles_to_ns(c)),
              static_cast<double>(day), 1.0);
}

// Reference conversions, always in 128-bit, written independently of the
// class: nearest rounds half away from zero, floor and ceil fix up C++'s
// truncating quotient by its remainder's sign.
__int128 ref_div_nearest(__int128 num, __int128 den) {
  return num >= 0 ? (num + den / 2) / den : -((-num + den / 2) / den);
}
__int128 ref_div_floor(__int128 num, __int128 den) {
  const __int128 q = num / den;
  return num % den < 0 ? q - 1 : q;
}
__int128 ref_div_ceil(__int128 num, __int128 den) {
  const __int128 q = num / den;
  return num % den > 0 ? q + 1 : q;
}

/// `got()` equals the 128-bit reference `want` where it fits in 64 bits,
/// and throws std::overflow_error where it does not.
template <typename Fn>
void expect_exact(Fn got, __int128 want, const char* what) {
  if (want <= INT64_MAX && want >= INT64_MIN) {
    EXPECT_EQ(got(), static_cast<std::int64_t>(want)) << what;
  } else {
    EXPECT_THROW((void)got(), std::overflow_error) << what;
  }
}

void expect_matches_reference(const Frequency& f, std::int64_t v) {
  const __int128 hz = f.hz();
  const __int128 ns_per_s = kNanosPerSecond;
  SCOPED_TRACE(testing::Message() << "hz " << f.hz() << " v " << v);
  expect_exact([&] { return f.cycles_to_ns(v); },
               ref_div_nearest(v * ns_per_s, hz), "cycles_to_ns");
  expect_exact([&] { return f.cycles_to_ns_ceil(v); },
               ref_div_ceil(v * ns_per_s, hz), "cycles_to_ns_ceil");
  expect_exact([&] { return f.ns_to_cycles(v); },
               ref_div_nearest(v * hz, ns_per_s), "ns_to_cycles");
  expect_exact([&] { return f.ns_to_cycles_floor(v); },
               ref_div_floor(v * hz, ns_per_s), "ns_to_cycles_floor");
}

TEST(Frequency, ExactAgainstInt128Reference) {
  for (const std::int64_t hz :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{3}, std::int64_t{7},
        std::int64_t{999'999'937}, std::int64_t{1'000'000'000},
        std::int64_t{1'300'000'000}, std::int64_t{2'200'000'000},
        std::int64_t{4'000'000'000}}) {
    const Frequency f(hz);
    // The 64-bit path's guards are derived from hz; probe both sides of
    // each, for both signs, plus the small values every cost model uses.
    std::vector<std::int64_t> probes = {0, 1, 2, 499, 500, 501, 769, 1300,
                                        999'999'999, 1'000'000'000};
    Rng rng(static_cast<std::uint64_t>(hz));
    for (const std::int64_t g : {f.max_exact64_cycles(), f.max_exact64_ns()}) {
      ASSERT_GT(g, 1'000'000'000);  // every delay up to a second is 64-bit
      for (const std::int64_t d : {-1, 0, 1}) probes.push_back(g + d);
      for (int i = 0; i < 500; ++i) {
        const std::int64_t span = std::int64_t{1} << rng.uniform(0, 40);
        const std::int64_t lo = g - span;
        const std::int64_t hi = g > INT64_MAX - span ? INT64_MAX : g + span;
        probes.push_back(rng.uniform(lo, hi));
      }
    }
    probes.push_back(INT64_MAX / kNanosPerSecond);
    probes.push_back(INT64_MAX / hz);
    for (int i = 0; i < 2000; ++i) {
      // Log-uniform magnitudes: short costs through year-long spans.
      const std::int64_t top = std::int64_t{1} << rng.uniform(0, 62);
      probes.push_back(rng.uniform(0, top));
    }
    for (const std::int64_t v : probes) {
      expect_matches_reference(f, v);
      expect_matches_reference(f, -v);
    }
  }
  // Floor and ceiling round toward -inf and +inf for either sign.
  const Frequency phi(1'300'000'000);
  EXPECT_EQ(phi.cycles_to_ns_ceil(-1300), -1000);
  EXPECT_EQ(phi.cycles_to_ns_ceil(-2), -1);
  EXPECT_EQ(phi.cycles_to_ns_ceil(2), 2);
  EXPECT_EQ(phi.ns_to_cycles_floor(-1), -2);
  EXPECT_EQ(phi.ns_to_cycles_floor(1), 1);
}

// A result past int64 throws instead of wrapping: the 128-bit fallback
// checks its quotient, both ways across the boundary.
TEST(Frequency, OutOfRangeResultThrows) {
  const Frequency one_hz(1);
  EXPECT_THROW((void)one_hz.cycles_to_ns(std::int64_t{1} << 62),
               std::overflow_error);
  EXPECT_THROW((void)one_hz.cycles_to_ns_ceil(-(std::int64_t{1} << 62)),
               std::overflow_error);
  const std::int64_t last = INT64_MAX / kNanosPerSecond;  // last exact second
  EXPECT_EQ(one_hz.cycles_to_ns(last), last * kNanosPerSecond);
  EXPECT_EQ(one_hz.cycles_to_ns(-last), -last * kNanosPerSecond);
  EXPECT_THROW((void)one_hz.cycles_to_ns(last + 1), std::overflow_error);
  EXPECT_THROW((void)one_hz.cycles_to_ns_ceil(last + 1), std::overflow_error);

  const Frequency four_ghz(4'000'000'000);
  EXPECT_THROW((void)four_ghz.ns_to_cycles(INT64_MAX), std::overflow_error);
  EXPECT_THROW((void)four_ghz.ns_to_cycles_floor(INT64_MIN),
               std::overflow_error);
  const std::int64_t ns = INT64_MAX / 4;  // 4 cycles per ns: still fits
  EXPECT_EQ(four_ghz.ns_to_cycles(ns), ns * 4);
  EXPECT_EQ(four_ghz.ns_to_cycles_floor(-ns), -ns * 4);
  EXPECT_THROW((void)four_ghz.ns_to_cycles(ns + 1), std::overflow_error);
  // At or below 1 GHz every result fits.
  EXPECT_EQ(Frequency(1'000'000'000).ns_to_cycles(INT64_MAX), INT64_MAX);
}

// hz divides every conversion; hz <= 0 has no meaning and hz = 0 would
// trap on the divide.
TEST(Frequency, RejectsNonPositiveHz) {
  EXPECT_THROW(Frequency{0}, std::invalid_argument);
  EXPECT_THROW(Frequency{-1}, std::invalid_argument);
  EXPECT_THROW(Frequency{INT64_MIN}, std::invalid_argument);
  EXPECT_EQ(Frequency{1}.hz(), 1);
}

class FrequencySweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(FrequencySweep, ConversionsMonotone) {
  const Frequency f(GetParam());
  Cycles prev = -1;
  for (Nanos ns = 0; ns < 2000; ns += 13) {
    const Cycles c = f.ns_to_cycles(ns);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

INSTANTIATE_TEST_SUITE_P(Clocks, FrequencySweep,
                         ::testing::Values(1'000'000'000, 1'300'000'000,
                                           2'200'000'000, 3'500'000'000));

// ---------- Engine ----------

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, SameTimeFifoWithinBand) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  eng.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, BandsOrderSimultaneousEvents) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(10, [&] { order.push_back(2); }, EventBand::kDefault);
  eng.schedule_at(10, [&] { order.push_back(0); }, EventBand::kSmi);
  eng.schedule_at(10, [&] { order.push_back(3); }, EventBand::kObserver);
  eng.schedule_at(10, [&] { order.push_back(1); }, EventBand::kHardware);
  eng.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool ran = false;
  EventId id = eng.schedule_at(10, [&] { ran = true; });
  eng.cancel(id);
  eng.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.events_executed(), 0u);
}

TEST(Engine, CancelIsIdempotentAndSafeOnInvalid) {
  Engine eng;
  eng.cancel(EventId{});      // invalid
  EventId id = eng.schedule_at(5, [] {});
  eng.cancel(id);
  eng.cancel(id);             // double cancel
  EXPECT_EQ(eng.run_all(), 0u);
}

TEST(Engine, RunUntilStopsAtHorizonAndAdvancesClock) {
  Engine eng;
  int count = 0;
  for (Nanos t = 10; t <= 100; t += 10) {
    eng.schedule_at(t, [&] { ++count; });
  }
  eng.run_until(55);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eng.now(), 55);
  eng.run_until(200);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(eng.now(), 200);  // clock reaches the horizon past last event
}

TEST(Engine, EventsScheduledFromCallbacksRun) {
  Engine eng;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) eng.schedule_after(5, recurse);
  };
  eng.schedule_at(0, recurse);
  eng.run_all();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(eng.now(), 45);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.schedule_at(100, [] {});
  eng.run_all();
  EXPECT_THROW(eng.schedule_at(50, [] {}), std::logic_error);
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine eng;
  int count = 0;
  eng.schedule_at(1, [&] { ++count; });
  eng.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(eng.step());
  EXPECT_FALSE(eng.step());
  EXPECT_EQ(count, 2);
}

// ---------- Rng ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(-5, 12);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 12);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng r(99);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(5);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.exponential(250.0));
  EXPECT_NEAR(s.mean(), 250.0, 10.0);
}

TEST(Rng, JitteredRespectsFloorAndMean) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    const auto v = r.jittered(1000, 0.1);
    EXPECT_GE(v, 500);  // min_fraction default 0.5
    s.add(static_cast<double>(v));
  }
  EXPECT_NEAR(s.mean(), 1000.0, 10.0);
}

TEST(Rng, JitterDisabledReturnsBase) {
  Rng r(1);
  EXPECT_EQ(r.jittered(1000, 0.0), 1000);
  EXPECT_EQ(r.jittered(0, 0.5), 0);
}

// Rng::jittered's formula as it stood before the fast path, libm cos and
// all: the reference the fast path must reproduce bit for bit.
std::int64_t libm_jitter(std::int64_t base, double rel_std,
                         double min_fraction, double u1, double u2) {
  if (u1 < 1e-300) u1 = 1e-300;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double normal = 0.0 + rel_std * mag * std::cos(6.283185307179586 * u2);
  const double v = static_cast<double>(base) * (1.0 + normal);
  const double floor_v = static_cast<double>(base) * min_fraction;
  return static_cast<std::int64_t>(v < floor_v ? floor_v : v);
}

// Draws `n` jitters from two same-seed streams, one through jittered() and
// one through libm_jitter(); returns how many differ.
std::int64_t jitter_mismatches(std::uint64_t seed, std::int64_t base,
                               double rel_std, std::int64_t n,
                               double min_fraction = 0.5) {
  Rng fast(seed);
  Rng ref(seed);
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t got = fast.jittered(base, rel_std, min_fraction);
    const double u1 = ref.next_double();
    const double u2 = ref.next_double();
    mismatches += got != libm_jitter(base, rel_std, min_fraction, u1, u2);
  }
  return mismatches;
}

// Every CostModel field of both machines, at the models' own rel_std, 10^7
// draws each.  cost_ns is also charged lengths computed from the fields: a
// scheduler pass of sched_pass_base + sched_pass_per_thread * n for up to
// LocalScheduler's 1024 threads, a cyclic-executive pass of
// sched_pass_base / 2, a reservation commit of admission_control / 20, and
// atomics of any duration converted to cycles (every base 1..5000 here).
// Then a slice at rel_std 1.0 (a cos error scaled ~12x larger) with the
// default floor and with a negative one (negative costs returned); and
// bases 2^20..2^40, where the band widens towards a cycle and the fallback
// runs more and more often: from 2^37 up the band always covers an integer,
// so every draw the floor does not clamp takes the fallback.
TEST(Rng, JitteredMatchesLibmReference) {
  std::vector<std::int64_t> bases;
  std::uint64_t seed = 1;
  for (const hw::MachineSpec& spec :
       {hw::MachineSpec::phi(), hw::MachineSpec::r415()}) {
    const hw::CostModel& c = spec.cost;
    ASSERT_EQ(c.jitter_rel_std, 0.08);
    for (const sim::Cycles b :
         {c.irq_dispatch, c.sched_pass_base, c.sched_pass_per_thread,
          c.context_switch, c.sched_other, c.admission_control, c.atomic_rmw,
          c.cacheline_transfer, c.spin_notice, c.thread_create,
          c.group_scan_per_member}) {
      if (std::find(bases.begin(), bases.end(), b) == bases.end()) {
        bases.push_back(b);
      }
    }
    for (sim::Cycles n = 0; n <= 1024; ++n) {
      const sim::Cycles pass = c.sched_pass_base + c.sched_pass_per_thread * n;
      EXPECT_EQ(jitter_mismatches(seed++, pass, 0.08, 5'000), 0)
          << spec.name << " pass with " << n << " threads";
    }
    for (const sim::Cycles b :
         {c.sched_pass_base / 2, c.admission_control / 20}) {
      EXPECT_EQ(jitter_mismatches(seed++, b, 0.08, 1'000'000), 0)
          << spec.name << " base " << b;
    }
  }
  for (const std::int64_t base : bases) {
    EXPECT_EQ(jitter_mismatches(seed++, base, 0.08, 10'000'000), 0)
        << "base " << base;
  }
  for (std::int64_t base = 1; base <= 5000; ++base) {
    EXPECT_EQ(jitter_mismatches(seed++, base, 0.08, 2'000), 0)
        << "base " << base;
  }
  for (const std::int64_t base : {6, 300, 2300, 80'000}) {
    EXPECT_EQ(jitter_mismatches(seed++, base, 1.0, 1'000'000), 0)
        << "base " << base << " rel_std 1.0";
    EXPECT_EQ(jitter_mismatches(seed++, base, 1.0, 1'000'000, -4.0), 0)
        << "base " << base << " rel_std 1.0, floor -4";
  }
  for (const int log2 : {20, 24, 30, 34, 36, 37, 38, 40}) {
    const std::int64_t base = std::int64_t{1} << log2;
    EXPECT_EQ(jitter_mismatches(seed++, base, 0.08, 100'000), 0)
        << "base 2^" << log2;
    EXPECT_EQ(jitter_mismatches(seed++, base + 1, 1.0, 100'000), 0)
        << "base 2^" << log2 << " + 1, rel_std 1.0";
  }
}

// Uniforms picked where a wrong fast path would show: u1 = 0 (the 1e-300
// clamp), u2 on and next to each quadrant boundary and each of cos_2pi's
// table points and cell edges, and pairs whose libm value lies within 1e-9
// of an integer or of the floor.
TEST(Rng, JitterCostMatchesLibmAtHandPickedDraws) {
  const std::vector<double> u1s = {0.0, 1e-300, 1e-12, 0.1, 0.5,
                                   std::nextafter(1.0, 0.0)};
  std::vector<double> u2s;
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double lo = q;
    double hi = q;
    for (int k = 0; k < 8; ++k) {
      if (q > 0.0) u2s.push_back(lo = std::nextafter(lo, 0.0));
      if (q < 1.0) u2s.push_back(hi);
      hi = std::nextafter(hi, 1.0);
    }
  }
  // cos_2pi's 256 table points and its cells' edges, each +-1 ulp.
  for (int i = 1; i < 512; ++i) {
    const double edge = i / 512.0;
    u2s.insert(u2s.end(), {std::nextafter(edge, 0.0), edge,
                           std::nextafter(edge, 1.0)});
  }
  for (const std::int64_t base : {1, 6, 1500, 2300, 80'000}) {
    for (const double rel_std : {0.08, 1.0}) {
      for (const double u1 : u1s) {
        for (const double u2 : u2s) {
          EXPECT_EQ(jitter_cost(base, rel_std, 0.5, u1, u2),
                    libm_jitter(base, rel_std, 0.5, u1, u2))
              << base << " " << rel_std << " " << u1 << " " << u2;
        }
      }
    }
  }

  // Aim u2 at a target value T: cos(2*pi*u2) = (T/base - 1)/a, then walk
  // u2 in 2^-52 steps across it.  Integer targets straddle a truncation;
  // base/2 targets straddle the floor.
  int near = 0;
  int below_int = 0;
  int above_int = 0;
  for (const std::int64_t base : {6, 1500, 2300, 2301, 80'000}) {
    for (const double rel_std : {0.08, 1.0}) {
      for (const double u1 : {1e-12, 0.01, 0.3}) {
        const double a = rel_std * std::sqrt(-2.0 * std::log(u1));
        const double b = static_cast<double>(base);
        const std::vector<double> targets = {
            b * 0.5, b - 1.0, b, b + 1.0, std::floor(b * (1.0 + 0.3 * a)),
            std::floor(b * (1.0 - 0.3 * a))};
        for (const double target : targets) {
          const double c = (target / b - 1.0) / a;
          if (!(std::fabs(c) <= 1.0)) continue;
          const double u2_hit = std::acos(c) / 6.283185307179586;
          for (const double u2_mid : {u2_hit, 1.0 - u2_hit}) {
            for (int j = -64; j <= 64; ++j) {
              const double u2 = u2_mid + j * 0x1p-52;
              if (!(u2 >= 0.0 && u2 < 1.0)) continue;
              const double v =
                  b * (1.0 + (0.0 + a * std::cos(6.283185307179586 * u2)));
              if (std::fabs(v - target) >= 1e-9) continue;
              ++near;
              if (target == std::floor(target) && target != b * 0.5) {
                below_int += v < target;
                above_int += v >= target;
              }
              EXPECT_EQ(jitter_cost(base, rel_std, 0.5, u1, u2),
                        libm_jitter(base, rel_std, 0.5, u1, u2))
                  << base << " " << rel_std << " " << u1 << " " << u2;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(near, 1000);
  EXPECT_GT(below_int, 100);
  EXPECT_GT(above_int, 100);
}

// The band in jitter_cost assumes |JitterTables::log(u) - std::log(u)| <=
// kJitterLogMaxRelErr * |std::log(u)|.  Check it on a dense grid of (0, 1),
// at u = 1 - k*2^-53 for k up to 10^6 (where log u -> 0 and only relative
// accuracy keeps the band honest), down to the 1e-300 clamp, and within
// 64 ulps of the table's cell edges in several binades.
TEST(JitterTables, LogStaysWithinAssumedBoundOfLibm) {
  double worst = 0.0;
  auto check = [&worst](double u) {
    const double want = std::log(u);
    ASSERT_NE(want, 0.0) << u;
    const double err = std::fabs(jitter_tables().log(u) - want);
    worst = std::max(worst, err / std::fabs(want));
  };
  constexpr int kGrid = 1 << 23;
  for (int i = 1; i < kGrid; ++i) check(static_cast<double>(i) / kGrid);
  for (int k = 1; k <= 1'000'000; ++k) check(1.0 - k * 0x1p-53);
  for (double u = 1e-300; u < 1.0; u *= 1.001) check(u);
  check(1e-300);
  for (const int e : {0, -1, -2, -30, -500, -996}) {
    for (std::uint64_t i = 0; i < 128; ++i) {
      const double edge = std::ldexp(
          std::bit_cast<double>(JitterTables::kLogOffset + (i << 45)), e);
      double lo = edge;
      double hi = edge;
      for (int k = 0; k <= 64; ++k) {
        if (lo < 1.0) check(lo);
        if (hi < 1.0) check(hi);
        lo = std::nextafter(lo, 0.0);
        hi = std::nextafter(hi, 2.0);
      }
    }
  }
  EXPECT_LE(worst, kJitterLogMaxRelErr);
  // The documented derivation puts the truncation error below 1.005*2^-26.
  EXPECT_LT(worst, 0x1.02p-26);
  EXPECT_EQ(jitter_tables().log(1.0), 0.0);
}

// The band in jitter_cost assumes |JitterTables::cos_2pi(u) -
// std::cos(2*pi*u)| <= kJitterCosMaxErr over [0, 1].  Check it on a dense
// grid, within 64 ulps of every table point i/256 and of every cell edge
// (i + 1/2)/256, where the rounded index switches, and at the largest u2
// draw and at 1.
TEST(JitterTables, CosStaysWithinAssumedBoundOfLibm) {
  double worst = 0.0;
  auto check = [&worst](double u) {
    worst = std::max(worst, std::fabs(jitter_tables().cos_2pi(u) -
                                      std::cos(6.283185307179586 * u)));
  };
  constexpr int kGrid = 1 << 23;
  for (int i = 0; i < kGrid; ++i) check(static_cast<double>(i) / kGrid);
  for (int i = 0; i <= 512; ++i) {
    const double center = i / 512.0;
    double lo = center;
    double hi = center;
    for (int k = 0; k <= 64; ++k) {
      if (lo >= 0.0) check(lo);
      if (hi <= 1.0) check(hi);
      lo = std::nextafter(lo, -1.0);
      hi = std::nextafter(hi, 2.0);
    }
  }
  check(std::nextafter(1.0, 0.0));  // the largest u2 draw
  check(1.0);
  EXPECT_LE(worst, kJitterCosMaxErr);
  // The documented derivation puts the truncation error below 1.015*2^-30.
  EXPECT_LT(worst, 0x1.05p-30);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng root(42);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

// ---------- Stats ----------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

// ---------- Histogram ----------

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0, 100, 10);
  h.add(5);     // bin 0
  h.add(95);    // bin 9
  h.add(-1);    // underflow
  h.add(100);   // overflow (hi is exclusive)
  h.add(150);   // overflow
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0, 100, 10);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 30.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 40.0);
}

// ---------- ScopeAnalyzer ----------

TEST(Scope, MeasuresPulsesAndDuty) {
  ScopeAnalyzer s;
  // A clean 50% duty, 100-unit period square wave.
  for (Nanos t = 0; t < 1000; t += 100) {
    s.transition(t, true);
    s.transition(t + 50, false);
  }
  auto w = s.pulse_width_stats();
  EXPECT_EQ(w.count(), 10u);  // every high interval measured
  EXPECT_DOUBLE_EQ(w.mean(), 50.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  auto p = s.period_stats();
  EXPECT_DOUBLE_EQ(p.mean(), 100.0);
  EXPECT_NEAR(s.duty_cycle(), 0.5, 0.07);
}

TEST(Scope, IgnoresSameLevelRepeats) {
  ScopeAnalyzer s;
  s.transition(0, false);
  s.transition(10, true);
  s.transition(12, true);  // ignored
  s.transition(20, false);
  EXPECT_EQ(s.pulses().size(), 1u);
  EXPECT_EQ(s.pulses()[0].width, 10);
}

TEST(Scope, FuzzDetectedAsWidthSpread) {
  ScopeAnalyzer sharp;
  ScopeAnalyzer fuzzy;
  Rng r(17);
  for (Nanos t = 0; t < 100000; t += 100) {
    sharp.transition(t, true);
    sharp.transition(t + 50, false);
    fuzzy.transition(t, true);
    fuzzy.transition(t + 40 + r.uniform(0, 20), false);
  }
  EXPECT_LT(sharp.pulse_width_stats().stddev(), 0.001);
  EXPECT_GT(fuzzy.pulse_width_stats().stddev(), 3.0);
}

}  // namespace
}  // namespace hrt::sim
