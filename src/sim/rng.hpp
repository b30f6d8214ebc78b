// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic element of the simulation (cost jitter, SMI arrival,
// boot skew, work-stealing victim selection) draws from an Rng seeded
// explicitly, so that simulations are exactly reproducible run-to-run.
// The generator is xoshiro256** (public domain, Blackman & Vigna).
#pragma once

#include <bit>
#include <cstdint>
#include <cmath>

namespace hrt::sim {

/// Upper bound on |JitterTables::log(u) - std::log(u)| / |std::log(u)|
/// over 1e-300 <= u < 1; log(1) = 0 exactly.  Derived in
/// docs/PERFORMANCE.md (truncating log1p after r^3, under 1.005 * 2^-26 in
/// the cell just below 1 and less elsewhere, plus libm's and the
/// evaluation's roundings) and asserted by the tier-1 tests.
inline constexpr double kJitterLogMaxRelErr = 0x1.1p-26;

/// Upper bound on |JitterTables::cos_2pi(u) - std::cos(6.283185307179586 *
/// u)|, absolute, over 0 <= u <= 1.  Derived in docs/PERFORMANCE.md
/// (truncating cos d after d^2 on |d| <= pi/256, under 1.015 * 2^-30, plus
/// the table's, the argument's and the evaluation's roundings) and asserted
/// by the tier-1 tests.
inline constexpr double kJitterCosMaxErr = 0x1.1p-30;

/// The jitter fast path's log and cosine: two lookup tables (6 KB) and a
/// short polynomial each, no libm.  Get the process's one instance from
/// jitter_tables().
class JitterTables {
 public:
  /// Fills both tables from libm (src/sim/rng.cpp).
  JitterTables();

  /// log(u) for normal u > 0 to kJitterLogMaxRelErr: one table cell and a
  /// degree-3 log1p, as log u = k*ln 2 + log c + log1p(z/c - 1).
  /// r = z * (1/c) - 1 rounds once (and is exact when c = 1); |r| <= 2^-8,
  /// except in the cell above 1 (r < 2^-7), which only u = 1 (giving
  /// exactly 0) and u < 0.51 reach.
  [[nodiscard]] double log(double u) const {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
    const std::uint64_t shifted = bits - kLogOffset;
    const LogCell& cell = log_cells_[(shifted >> 45) & 127];
    const auto k =
        static_cast<double>(static_cast<std::int64_t>(shifted) >> 52);
    const double z = std::bit_cast<double>(
        bits - (shifted & (std::uint64_t{0xfff} << 52)));
    const double r = z * cell.inv_c - 1.0;
    const double log1p_r = r - r * r * (0.5 - r * (1.0 / 3.0));
    return k * 0.6931471805599453 + cell.log_c + log1p_r;
  }

  /// cos(2*pi*u) for 0 <= u <= 1 to kJitterCosMaxErr: with 256*u = i + f,
  /// i the nearest integer (the 1.5*2^52 shifter) and f exact,
  /// cos(t_i + d) = cos t_i * cos d - sin t_i * sin d for d = 2*pi*f/256,
  /// |d| <= pi/256, and cos d, sin d by two Taylor terms each.  The index
  /// is masked, so no u reads outside the table; cell 256 (u near 1) is
  /// cell 0.
  [[nodiscard]] double cos_2pi(double u) const {
    constexpr double kShifter = 0x1.8p52;
    const double x = 256.0 * u;
    const double s = x + kShifter;
    const CosEdge& edge = cos_edges_[std::bit_cast<std::uint64_t>(s) & 255];
    const double d = (x - (s - kShifter)) * (6.283185307179586 / 256);
    const double d2 = d * d;
    return edge.cos - (edge.cos * (0.5 * d2) +
                       edge.sin * (d - d * d2 * (1.0 / 6.0)));
  }

  /// log's cells: u = 2^k * z with z in [0.6875, 1.375) split into 128 by
  /// the top seven bits of (bits(u) - kLogOffset), the layout glibc's log
  /// uses.
  static constexpr std::uint64_t kLogOffset = 0x3fe6000000000000;

 private:
  /// 1/c for a c near the cell's middle, and log c.  The two cells around 1
  /// use c = 1 exactly, so r = z - 1 is exact there and the result stays
  /// relatively accurate as u -> 1.
  struct LogCell {
    double inv_c;
    double log_c;
  };
  /// cos and sin of 2*pi*i/256.
  struct CosEdge {
    double cos;
    double sin;
  };
  LogCell log_cells_[128];
  CosEdge cos_edges_[256];
};

/// The process's one JitterTables, built on first use (a function-local
/// static: no static-initialization-order hazard and no per-System cost).
inline const JitterTables& jitter_tables() {
  static const JitterTables tables;
  return tables;
}

/// jitter_cost's definition and fallback, for 1e-300 <= u1: the formula
/// with libm's log, sqrt and cos, in Rng::normal's order (src/sim/rng.cpp,
/// out of line so that jitter_cost's fast path stays small).
std::int64_t jitter_cost_libm(std::int64_t base, double rel_std,
                              double min_fraction, double u1, double u2);

/// The cost Rng::jittered returns for the uniform draws (u1, u2): base *
/// (1 + N(0, rel_std)) by Box-Muller, clamped below at base * min_fraction
/// and truncated.  Requires base > 0, rel_std > 0 and u1, u2 in [0, 1].
///
/// The result is bit-identical to evaluating the formula with libm's log
/// and cos (Rng::normal's expression), which defines it.  With a = rel_std
/// * mag and b = double(base), the value v computed with JitterTables'
/// log and cos_2pi differs from libm's by at most (kJitterCosMaxErr +
/// kJitterLogMaxRelErr / 2 + 2^-50) * (b*(1 + a) + |v|) < 2^-26*(b*(1 + a)
/// + |v|); the band is 4 times that (docs/PERFORMANCE.md).  Clamping and
/// truncating are both monotone, so when the band's two ends clamp and
/// truncate to one integer, libm's value does too.  Otherwise the libm
/// expression is evaluated: for 3*10^-5 of draws at a 120-cycle base,
/// 6*10^-4 at a phi() scheduler pass, 2 % at admission_control (80 000),
/// every draw the floor does not clamp at bases of 2^22 and up, and NaNs
/// and infinities.
inline std::int64_t jitter_cost(std::int64_t base, double rel_std,
                                double min_fraction, double u1, double u2) {
  if (u1 < 1e-300) u1 = 1e-300;
  const JitterTables& tables = jitter_tables();
  const double a = rel_std * std::sqrt(-2.0 * tables.log(u1));
  const double b = static_cast<double>(base);
  const double floor_v = b * min_fraction;
  const auto clamp = [floor_v](double v) { return v < floor_v ? floor_v : v; };
  const double v = b * (1.0 + a * tables.cos_2pi(u2));
  static_assert(kJitterCosMaxErr + kJitterLogMaxRelErr / 2 + 0x1p-50 <=
                    0x1p-26,
                "band assumes this");
  const double band = 0x1p-24 * (b * (1.0 + a) + std::fabs(v));
  const double lo = clamp(v - band);
  const double hi = clamp(v + band);
  if (lo > -0x1p62 && hi < 0x1p62 &&
      static_cast<std::int64_t>(lo) == static_cast<std::int64_t>(hi))
      [[likely]] {
    return static_cast<std::int64_t>(lo);
  }
  return jitter_cost_libm(base, rel_std, min_fraction, u1, u2);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  /// Standard normal via Box-Muller (one value per call; simple and adequate
  /// for jitter modeling).
  double normal(double mean, double stddev) {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-300) u1 = 1e-300;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(6.283185307179586 * u2);
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    double u = next_double();
    if (u < 1e-300) u = 1e-300;
    return -mean * std::log(u);
  }

  /// A cost with multiplicative jitter: base * (1 + N(0, rel_std)), clamped
  /// to be at least min_fraction of the base.  Models the "fuzz" in
  /// interrupt/scheduler path lengths seen on the paper's oscilloscope traces.
  /// Draws as normal() does and returns what base * (1.0 + normal(0.0,
  /// rel_std)) would give, bit for bit (see jitter_cost).
  std::int64_t jittered(std::int64_t base, double rel_std,
                        double min_fraction = 0.5) {
    if (base <= 0 || rel_std <= 0.0) return base;
    const double u1 = next_double();
    const double u2 = next_double();
    return jitter_cost(base, rel_std, min_fraction, u1, u2);
  }

  /// Derive an independent stream (e.g., one per CPU) from this seed space.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) {
    return Rng(next_u64() ^ (stream_id * 0x9e3779b97f4a7c15ULL));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace hrt::sim
