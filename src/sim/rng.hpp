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

/// Upper bound on |cos_fast(x) - std::cos(x)| over [0, 2*pi], absolute.
/// Derived in docs/PERFORMANCE.md (reduction + kernel + rounding, plus
/// libm's own error, total under 2^-51) and asserted on a dense grid by the
/// tier-1 tests.
inline constexpr double kCosFastMaxErr = 0x1p-50;

/// cos(x) for x in [0, 2*pi] without libm and without a data-dependent
/// branch.  A Cody-Waite reduction by pi/2 (two-word constant, the quadrant
/// rounded with the 1.5*2^52 shifter) feeds fdlibm's sin/cos kernel
/// polynomials; the quadrant picks sin or cos and the sign by bit masks.
inline double cos_fast(double x) {
  constexpr double kShifter = 0x1.8p52;
  constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  constexpr double kPio2Hi = 1.57079632673412561417e+00;  // 33 bits
  constexpr double kPio2Lo = 6.07710050650619224932e-11;  // pi/2 - kPio2Hi
  constexpr double S1 = -1.66666666666666324348e-01;
  constexpr double S2 = 8.33333333332248946124e-03;
  constexpr double S3 = -1.98412698298579493134e-04;
  constexpr double S4 = 2.75573137070700676789e-06;
  constexpr double S5 = -2.50507602534068634195e-08;
  constexpr double S6 = 1.58969099521155010221e-10;
  constexpr double C1 = 4.16666666666666019037e-02;
  constexpr double C2 = -1.38888888888741095749e-03;
  constexpr double C3 = 2.48015872894767294178e-05;
  constexpr double C4 = -2.75573143513906633035e-07;
  constexpr double C5 = 2.08757232129817482790e-09;
  constexpr double C6 = -1.13596475577881948265e-11;

  // k = nearest integer to x*2/pi (0..4); its low bits sit in t's mantissa.
  const double t = x * kTwoOverPi + kShifter;
  const std::uint64_t q = std::bit_cast<std::uint64_t>(t);
  const double k = t - kShifter;
  // k*kPio2Hi is exact and so is the subtraction (Sterbenz); |r| <= pi/4.
  const double r = (x - k * kPio2Hi) - k * kPio2Lo;
  const double z = r * r;
  const double s =
      r + r * z * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
  const double c =
      1.0 - (0.5 * z -
             z * z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6))))));
  // cos(r + k*pi/2) = cos r, -sin r, -cos r, sin r for k mod 4 = 0..3.
  const std::uint64_t odd = std::uint64_t{0} - (q & 1);
  const std::uint64_t sign = ((q + 1) & 2) << 62;
  const std::uint64_t bits = (std::bit_cast<std::uint64_t>(c) & ~odd) |
                             (std::bit_cast<std::uint64_t>(s) & odd);
  return std::bit_cast<double>(bits ^ sign);
}

/// The cost Rng::jittered returns for the uniform draws (u1, u2): base *
/// (1 + N(0, rel_std)) by Box-Muller, clamped below at base * min_fraction
/// and truncated.  Requires base > 0 and rel_std > 0.
///
/// The result is bit-identical to evaluating the formula with libm's cos
/// (Rng::normal's expression), which defines it.  With a = rel_std * mag
/// and b = double(base), the value v computed with cos_fast differs from
/// libm's by at most b*a*(kCosFastMaxErr + 2^-51) + 2^-52*(b + |v|) <
/// 2^-49*(b*(1 + a) + |v|); the band is 2^10 times that.  Clamping and
/// truncating are both monotone, so when the band's two ends clamp and
/// truncate to one integer, libm's value does too.  Otherwise the libm
/// expression is evaluated: about one draw in 10^7 at the paper's path
/// lengths, every draw the floor does not clamp at bases of 2^37 and up,
/// and NaNs and infinities.
inline std::int64_t jitter_cost(std::int64_t base, double rel_std,
                                double min_fraction, double u1, double u2) {
  if (u1 < 1e-300) u1 = 1e-300;
  const double a = rel_std * std::sqrt(-2.0 * std::log(u1));
  const double x = 6.283185307179586 * u2;
  const double b = static_cast<double>(base);
  const double floor_v = b * min_fraction;
  const auto clamp = [floor_v](double v) { return v < floor_v ? floor_v : v; };
  const double v = b * (1.0 + a * cos_fast(x));
  static_assert(kCosFastMaxErr + 0x1p-51 <= 0x1p-49, "band assumes this");
  const double band = 0x1p-39 * (b * (1.0 + a) + std::fabs(v));
  const double lo = clamp(v - band);
  const double hi = clamp(v + band);
  if (lo > -0x1p62 && hi < 0x1p62 &&
      static_cast<std::int64_t>(lo) == static_cast<std::int64_t>(hi)) {
    return static_cast<std::int64_t>(lo);
  }
  return static_cast<std::int64_t>(
      clamp(b * (1.0 + (0.0 + a * std::cos(x)))));
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
