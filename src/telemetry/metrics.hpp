// Streaming metrics layer (docs/OBSERVABILITY.md).
//
// Unlike the flight recorder — which keeps the *recent* event history — the
// metrics registry keeps bounded-size aggregates over the whole run:
// log-bucketed per-thread deadline-slack/lateness histograms, per-CPU
// completion and miss counters, and pass-span and effective-capacity
// gauges.  All host-side state; nothing here charges simulated time.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hrt::telemetry {

/// Log2-bucketed histogram over non-negative nanosecond values.  Bucket 0
/// holds exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b).  Quantiles are
/// extracted by linear interpolation within the winning bucket, clamped to
/// the exact observed min/max so the tails never over-report.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // {0} + 64 powers of two

  void add(std::uint64_t v) {
    ++counts_[bucket_of(v)];
    ++total_;
    sum_ += static_cast<double>(v);
    if (total_ == 1 || v < min_) min_ = v;
    if (total_ == 1 || v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t min() const { return total_ > 0 ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return total_ > 0 ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const {
    return counts_[b];
  }
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  }
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// q in [0, 1]; returns 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double rank = q * static_cast<double>(total_ - 1);
    double cum = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const double c = static_cast<double>(counts_[b]);
      if (c == 0.0) continue;
      if (rank < cum + c) {
        if (b == 0) return 0.0;
        const double frac = (rank - cum + 0.5) / c;
        const double lo = static_cast<double>(bucket_lo(b));
        double v = lo + frac * lo;  // bucket width equals its lower bound
        const double mn = static_cast<double>(min_);
        const double mx = static_cast<double>(max_);
        if (v < mn) v = mn;
        if (v > mx) v = mx;
        return v;
      }
      cum += c;
    }
    return static_cast<double>(max_);
  }

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

/// Per-thread deadline statistics.  Slack is (deadline - completion) for
/// arrivals that met their deadline; lateness is (completion - deadline) for
/// the ones that missed.
struct ThreadMetrics {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t completions = 0;
  std::uint64_t misses = 0;
  LogHistogram slack_ns;
  LogHistogram lateness_ns;
};

/// Per-CPU aggregates that are not a count of one record kind: arrival
/// closes (a met deadline leaves no record, skipped windows leave one
/// record for many misses) and gauges.  Event counts (passes, switches,
/// migrations, ...) are the flight recorder's FlightRecorder::count.
struct CpuMetrics {
  std::uint64_t completions = 0;
  std::uint64_t misses = 0;
  sim::RunningStats pass_span_ns;   // executor handler span (scheduler path)
  double effective_capacity = 0.0;  // gauge: RT capacity after degradation
};

class MetricsRegistry {
 public:
  MetricsRegistry(std::uint32_t num_cpus, std::size_t max_threads)
      : cpus_(num_cpus), max_threads_(max_threads) {}

  [[nodiscard]] CpuMetrics& cpu(std::uint32_t c) { return cpus_[c]; }
  [[nodiscard]] const CpuMetrics& cpu(std::uint32_t c) const {
    return cpus_[c];
  }
  [[nodiscard]] std::uint32_t num_cpus() const {
    return static_cast<std::uint32_t>(cpus_.size());
  }

  /// Record one arrival close.  `lateness` is signed: negative means the
  /// deadline was met with that much slack.
  void on_completion(std::uint32_t cpu, std::uint32_t tid,
                     std::string_view name, sim::Nanos lateness) {
    ++cpus_[cpu].completions;
    ThreadMetrics* tm = thread_slot(tid, name);
    if (lateness > 0) {
      ++cpus_[cpu].misses;
      if (tm != nullptr) {
        ++tm->completions;
        ++tm->misses;
        tm->lateness_ns.add(static_cast<std::uint64_t>(lateness));
      }
    } else if (tm != nullptr) {
      ++tm->completions;
      tm->slack_ns.add(static_cast<std::uint64_t>(-lateness));
    }
  }

  /// Deadline windows skipped outright (late service elapsed whole periods):
  /// misses with no completion event of their own.
  void on_skipped(std::uint32_t cpu, std::uint32_t tid, std::string_view name,
                  std::uint64_t n) {
    cpus_[cpu].misses += n;
    ThreadMetrics* tm = thread_slot(tid, name);
    if (tm != nullptr) tm->misses += n;
  }

  [[nodiscard]] const ThreadMetrics* thread(std::uint32_t tid) const {
    auto it = threads_.find(tid);
    return it == threads_.end() ? nullptr : &it->second;
  }
  /// Stable (tid-sorted) view for export.
  [[nodiscard]] std::vector<const ThreadMetrics*> threads_sorted() const;
  [[nodiscard]] std::uint64_t threads_dropped() const {
    return threads_dropped_;
  }

 private:
  ThreadMetrics* thread_slot(std::uint32_t tid, std::string_view name) {
    auto it = threads_.find(tid);
    if (it != threads_.end()) return &it->second;
    if (threads_.size() >= max_threads_) {
      ++threads_dropped_;
      return nullptr;
    }
    ThreadMetrics& tm = threads_[tid];
    tm.tid = tid;
    tm.name.assign(name.data(), name.size());
    return &tm;
  }

  std::vector<CpuMetrics> cpus_;
  std::unordered_map<std::uint32_t, ThreadMetrics> threads_;
  std::size_t max_threads_;
  std::uint64_t threads_dropped_ = 0;
};

}  // namespace hrt::telemetry
