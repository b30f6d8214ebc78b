#include "sim/rng.hpp"

namespace hrt::sim {

JitterTables::JitterTables() {
  for (std::uint64_t i = 0; i < 128; ++i) {
    const double lo = std::bit_cast<double>(kLogOffset + (i << 45));
    const double hi = std::bit_cast<double>(kLogOffset + ((i + 1) << 45));
    const double inv_c = lo <= 1.0 && 1.0 <= hi ? 1.0 : 2.0 / (lo + hi);
    log_cells_[i] = {inv_c, -std::log(inv_c)};
  }
  for (int i = 0; i < 256; ++i) {
    const double t = 6.283185307179586 * i / 256;
    cos_edges_[i] = {std::cos(t), std::sin(t)};
  }
}

std::int64_t jitter_cost_libm(std::int64_t base, double rel_std,
                              double min_fraction, double u1, double u2) {
  const double a = rel_std * std::sqrt(-2.0 * std::log(u1));
  const double b = static_cast<double>(base);
  const double floor_v = b * min_fraction;
  const double v = b * (1.0 + (0.0 + a * std::cos(6.283185307179586 * u2)));
  return static_cast<std::int64_t>(v < floor_v ? floor_v : v);
}

}  // namespace hrt::sim
