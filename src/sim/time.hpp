// Time types and cycle<->nanosecond conversion.
//
// Following the paper (section 3.3), all wall-clock time in the system is kept
// in signed 64-bit nanoseconds: "Time is measured throughout in units of
// nanoseconds stored in 64 bit integers."  Cycle counts are what the simulated
// hardware (TSC, APIC) exposes; the conversion is owned by a Frequency object
// so that per-machine clock rates (Phi @ 1.3 GHz, R415 @ 2.2 GHz) are explicit.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace hrt::sim {

/// Wall-clock time or duration in nanoseconds.
using Nanos = std::int64_t;

/// A count of processor clock cycles (TSC units).
using Cycles = std::int64_t;

inline constexpr Nanos kNanosPerMicro = 1'000;
inline constexpr Nanos kNanosPerMilli = 1'000'000;
inline constexpr Nanos kNanosPerSecond = 1'000'000'000;

constexpr Nanos micros(std::int64_t us) { return us * kNanosPerMicro; }
constexpr Nanos millis(std::int64_t ms) { return ms * kNanosPerMilli; }
constexpr Nanos seconds(std::int64_t s) { return s * kNanosPerSecond; }

/// A fixed clock frequency.  Supports round-trip conversion between cycle
/// counts and nanoseconds.  Conversions round to nearest, except where a
/// caller explicitly needs the paper's conservative ("never later") rounding,
/// for which floor/ceil variants are provided; those are a true floor and
/// ceiling for either sign.
///
/// Each conversion is exact for every 64-bit operand whose result fits in
/// 64 bits, and throws std::overflow_error for one whose result does not
/// (cycles_to_ns(2^62) at 1 Hz, or ns_to_cycles(INT64_MAX) above 1 GHz).
/// Operands up to a few seconds (every cost and timer delay) take a 64-bit
/// multiply/divide, whose result always fits; larger ones fall back to
/// 128-bit arithmetic, which checks the quotient.  Both paths compute the
/// same value.
class Frequency {
 public:
  /// Throws std::invalid_argument unless hz > 0.
  constexpr explicit Frequency(std::int64_t hz)
      : hz_(checked_hz(hz)),
        max_exact64_cycles_((kInt64Max - hz_) / kNanosPerSecond),
        max_exact64_ns_((kInt64Max - kNanosPerSecond) / hz_) {}

  [[nodiscard]] constexpr std::int64_t hz() const { return hz_; }
  [[nodiscard]] constexpr double ghz() const {
    return static_cast<double>(hz_) / 1e9;
  }

  /// Largest |cycles| that cycles_to_ns / cycles_to_ns_ceil convert in
  /// 64 bits: c * 1e9 plus the rounding term cannot overflow.
  [[nodiscard]] constexpr Cycles max_exact64_cycles() const {
    return max_exact64_cycles_;
  }
  /// Largest |ns| that ns_to_cycles / ns_to_cycles_floor convert in 64 bits.
  [[nodiscard]] constexpr Nanos max_exact64_ns() const {
    return max_exact64_ns_;
  }

  /// Cycles -> nanoseconds, rounded to nearest (symmetric for negatives,
  /// which calibration offsets can be).
  [[nodiscard]] constexpr Nanos cycles_to_ns(Cycles c) const {
    if (fits(c, max_exact64_cycles_)) {
      return div_nearest(c * kNanosPerSecond, hz_);
    }
    const __int128 num = static_cast<__int128>(c) * kNanosPerSecond;
    return narrow(div_nearest(num, hz_));
  }

  /// Nanoseconds -> cycles, rounded to nearest.
  [[nodiscard]] constexpr Cycles ns_to_cycles(Nanos ns) const {
    if (fits(ns, max_exact64_ns_)) {
      return div_nearest(ns * hz_, kNanosPerSecond);
    }
    const __int128 num = static_cast<__int128>(ns) * hz_;
    return narrow(div_nearest(num, kNanosPerSecond));
  }

  /// Nanoseconds -> cycles, rounded down (conservative countdowns: a timer
  /// programmed with the floor fires earlier, never later).
  [[nodiscard]] constexpr Cycles ns_to_cycles_floor(Nanos ns) const {
    if (fits(ns, max_exact64_ns_)) return div_floor(ns * hz_, kNanosPerSecond);
    const __int128 num = static_cast<__int128>(ns) * hz_;
    return narrow(div_floor(num, kNanosPerSecond));
  }

  /// Cycles -> nanoseconds, rounded up.
  [[nodiscard]] constexpr Nanos cycles_to_ns_ceil(Cycles c) const {
    if (fits(c, max_exact64_cycles_)) return div_ceil(c * kNanosPerSecond, hz_);
    const __int128 num = static_cast<__int128>(c) * kNanosPerSecond;
    return narrow(div_ceil(num, hz_));
  }

 private:
  static constexpr std::int64_t kInt64Max = INT64_MAX;

  static constexpr std::int64_t checked_hz(std::int64_t hz) {
    if (hz <= 0) throw std::invalid_argument("Frequency: hz must be > 0");
    return hz;
  }

  static constexpr bool fits(std::int64_t v, std::int64_t max) {
    return v <= max && v >= -max;
  }

  // A 128-bit fallback's quotient as the 64-bit result it must fit.
  static constexpr std::int64_t narrow(__int128 q) {
    if (q > kInt64Max || q < INT64_MIN) {
      throw std::overflow_error("Frequency: converted value overflows int64");
    }
    return static_cast<std::int64_t>(q);
  }

  // C++ division truncates toward zero; these round as named, for den > 0.
  template <typename T>
  static constexpr T div_nearest(T num, std::int64_t den) {
    if (num >= 0) return (num + den / 2) / den;
    return -((-num + den / 2) / den);
  }
  template <typename T>
  static constexpr T div_floor(T num, std::int64_t den) {
    if (num >= 0) return num / den;
    return -((-num + den - 1) / den);
  }
  template <typename T>
  static constexpr T div_ceil(T num, std::int64_t den) {
    if (num >= 0) return (num + den - 1) / den;
    return -(-num / den);
  }

  std::int64_t hz_;
  std::int64_t max_exact64_cycles_;
  std::int64_t max_exact64_ns_;
};

}  // namespace hrt::sim
