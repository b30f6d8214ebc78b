// Online missing-time estimator (section 3.6 resilience).
//
// Firmware-level SMIs freeze the whole machine; the OS cannot mask them and
// cannot observe them directly -- the TSC keeps counting through the freeze.
// The only software-visible footprint is *lateness*: a timer interrupt whose
// fire instant falls inside a frozen window is delivered when the window
// ends, so the handler observes now() > expected fire time.
//
// The estimator turns those lateness episodes into an unbiased estimate of
// the stolen-time fraction.  The subtlety is sampling bias: a freeze is only
// caught if it covers a pending fire instant.  With an armed timer delay of
// A ns, a freeze of length d < A is caught with probability ~d/A, and when
// caught the observed lateness averages d/2.  Charging
//
//     stolen_per_episode = lateness + min(A, cap)/2
//
// makes the expectation come out right in both regimes:
//   * d >= A: always caught, observed lateness ~ d - U(0,A), so adding A/2
//     recovers d exactly in expectation.
//   * d <  A: caught with prob d/A, and E[lateness + A/2 | caught] ~ A, so
//     E[charge] = (d/A) * A = d.
// The credit is capped so that one long-armed quiet-CPU timer cannot charge
// a huge phantom credit for a tiny blip.
//
// To keep A bounded (and the estimate responsive) without burning cycles,
// the scheduler arms an additional low-rate watchdog timer whose period
// adapts: quiet cadence normally, alert cadence once the EWMA fraction
// crosses a threshold.  The estimator only does arithmetic; the scheduler
// feeds it episodes from its timer path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace hrt::resilience {

struct EstimatorConfig {
  bool enabled = false;
  // Bucketing window for the windowed-max fraction.
  sim::Nanos window_ns = sim::millis(2);
  // Ring of completed windows considered by windowed_max_fraction().
  std::uint32_t windows_tracked = 8;
  // EWMA smoothing over completed windows (higher = more reactive).
  double ewma_alpha = 0.25;
};

class MissingTimeEstimator {
 public:
  // Cap on the A/2 arming-gap credit charged per caught episode.
  static constexpr sim::Nanos kEpisodeCreditCapNs = sim::micros(50);
  // Watchdog timer cadence: quiet normally, alert once the EWMA fraction
  // exceeds kAlertFraction.
  static constexpr sim::Nanos kWatchdogQuietNs = sim::micros(200);
  static constexpr sim::Nanos kWatchdogAlertNs = sim::micros(20);

  explicit MissingTimeEstimator(EstimatorConfig cfg = {}) : cfg_(cfg) {
    if (cfg_.window_ns <= 0) cfg_.window_ns = sim::millis(2);
    if (cfg_.windows_tracked == 0) cfg_.windows_tracked = 1;
    ring_.assign(cfg_.windows_tracked, 0.0);
  }

  const EstimatorConfig& config() const { return cfg_; }

  // Roll the window bucketing forward to `now`.  Windows that elapsed with
  // no episodes contribute zero stolen time (they decay the EWMA).
  void advance(sim::Nanos now) {
    if (!cfg_.enabled) return;
    if (window_start_ < 0) {
      window_start_ = now;
      return;
    }
    while (now - window_start_ >= cfg_.window_ns) {
      close_window();
      window_start_ += cfg_.window_ns;
    }
  }

  // Record one caught lateness episode.  `lateness` is delivery delay past
  // the expected fire instant; `armed_delay` is the delay the timer was
  // armed with (the sampling gap A).
  void note_episode(sim::Nanos lateness, sim::Nanos armed_delay,
                    sim::Nanos now) {
    if (!cfg_.enabled || lateness < kLatenessFloorNs) return;
    advance(now);
    const sim::Nanos gap = std::max<sim::Nanos>(armed_delay, 0);
    const sim::Nanos credit =
        std::min<sim::Nanos>(gap, kEpisodeCreditCapNs) / 2;
    window_stolen_ += lateness + credit;
    stolen_total_ += lateness + credit;
    ++episodes_;
  }

  // Record one pass-to-rearm handler span residual (actual span minus the
  // scheduler's own predicted handler cost).  Freezes that land inside the
  // handler window (after the pending fire expectation was consumed, before
  // the timer is re-armed) are invisible to the lateness path; they show up
  // only as the handler taking longer than its known cost.  Any constant
  // prediction offset (rounding differences in the cost model) is learned
  // online as the running minimum — freezes can only stretch a span, never
  // shrink it — and the excess above that floor is charged as stolen time.
  void note_span(sim::Nanos residual, sim::Nanos now) {
    if (!cfg_.enabled) return;
    advance(now);
    if (!min_span_valid_ || residual < min_span_) {
      min_span_ = residual;
      min_span_valid_ = true;
    }
    const sim::Nanos excess = residual - min_span_;
    if (excess < kLatenessFloorNs) return;
    window_stolen_ += excess;
    stolen_total_ += excess;
    ++span_episodes_;
  }

  // Smoothed stolen-time fraction (0..1) over completed windows.
  double ewma_fraction() const { return ewma_; }

  // Worst completed window in the tracked ring -- the storm detector keys
  // off this so a single bad window is not averaged away.
  double windowed_max_fraction() const {
    double m = 0.0;
    for (double f : ring_) m = std::max(m, f);
    return m;
  }

  std::uint64_t stolen_total_ns() const { return stolen_total_; }
  std::uint64_t episodes() const { return episodes_; }
  std::uint64_t span_episodes() const { return span_episodes_; }

  // Cadence the scheduler should use for its watchdog timer right now.
  sim::Nanos watchdog_period() const {
    return ewma_ > kAlertFraction ? kWatchdogAlertNs : kWatchdogQuietNs;
  }

 private:
  // Lateness below this is attributed to handler/masking jitter, not SMIs.
  static constexpr sim::Nanos kLatenessFloorNs = sim::micros(1);
  static constexpr double kAlertFraction = 0.01;

  void close_window() {
    const double frac = std::clamp(
        static_cast<double>(window_stolen_) /
            static_cast<double>(cfg_.window_ns),
        0.0, 1.0);
    ring_[ring_pos_] = frac;
    ring_pos_ = (ring_pos_ + 1) % ring_.size();
    ewma_ = cfg_.ewma_alpha * frac + (1.0 - cfg_.ewma_alpha) * ewma_;
    window_stolen_ = 0;
  }

  EstimatorConfig cfg_;
  sim::Nanos window_start_ = -1;
  sim::Nanos window_stolen_ = 0;
  std::uint64_t stolen_total_ = 0;
  std::uint64_t episodes_ = 0;
  std::uint64_t span_episodes_ = 0;
  sim::Nanos min_span_ = 0;  // learned un-frozen span residual
  bool min_span_valid_ = false;
  std::vector<double> ring_;
  std::size_t ring_pos_ = 0;
  double ewma_ = 0.0;
};

}  // namespace hrt::resilience
