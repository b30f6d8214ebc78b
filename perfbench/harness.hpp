// Measurement harness for the end-to-end benchmark: host clocks, process
// memory, the determinism fingerprint, counter snapshots of every layer's
// public statistics, and the span tracer that wraps each public call.
//
// Everything here observes the simulator from outside.  A span is recorded
// by the benchmark's own code around a call into a module's public API; at
// both span boundaries the tracer snapshots the public counters of the
// System it is pointed at, so a layer's work is the counter delta across
// its spans and its host time is the spans' self time.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/system.hpp"

namespace perfbench {

/// Host seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-speed calibration: a fixed discrete-event loop that shares no code
/// with the simulator (a binary heap of timed events over 256 "CPUs",
/// indirect calls through std::function, a 128 KiB state array).  Returns
/// its host seconds.  On the shared host the benchmark was tuned on, other
/// tenants slowed the simulator by up to 70 % for minutes at a time, and
/// this loop tracked those slowdowns with a correlation of about 0.86.
double calibration_loop();

/// Host seconds of calibration_loop() on the reference host (a quiet 4-core
/// Xeon VM at 2.1 GHz).  Reported host times are scaled by this over the
/// measured loop time, i.e. expressed in reference-host seconds.
inline constexpr double kReferenceCalibrationS = 0.030;

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// A /proc/self/status field in MB ("VmRSS", "VmHWM"); -1 if unreadable.
double proc_status_mb(const char* key);

/// FNV-1a over 64-bit words: the determinism fingerprint of a run's
/// simulated outcomes.  Host times never enter it.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Public counters of every layer, summed over CPUs where they are per-CPU.
enum Counter : std::size_t {
  // sim
  kEvents,
  kPending,
  kTraceRecords,
  // nautilus (CpuExecutor::overheads / preemptions)
  kNkPasses,
  kNkSwitches,
  kNkPreemptions,
  // rt (LocalScheduler::Stats)
  kPasses,
  kTimerPasses,
  kKickPasses,
  kZeroDelayArms,
  kRrRotations,
  kAdmitsOk,
  kAdmitsRejected,
  kFastAdmits,
  kFastFallbacks,
  kBatchReserves,
  // global (GlobalScheduler::Stats + Rebalancer::Stats)
  kFallbackPlacements,
  kSplitChunks,
  kAdmitGiveUps,
  kRebalances,
  // telemetry (FlightRecorder)
  kRecWritten,
  kRecDropped,
  // audit
  kViolations,
  kCounterCount,
};

/// JSON key of each Counter, in enum order.
inline constexpr const char* kCounterNames[kCounterCount] = {
    "events",          "pending",        "trace_records",
    "nk_passes",       "nk_switches",    "nk_preemptions",
    "passes",          "timer_passes",   "kick_passes",
    "zero_delay_arms", "rr_rotations",   "admits_ok",
    "admits_rejected", "fast_admits",    "fast_fallbacks",
    "batch_reserves",  "fallback_placements", "split_chunks",
    "admit_give_ups",  "rebalances",     "rec_written",
    "rec_dropped",     "violations",
};

struct Counters {
  std::array<std::uint64_t, kCounterCount> v{};
  double rss_mb = -1.0;  // process memory, MB; -1 when not sampled
  [[nodiscard]] std::uint64_t operator[](Counter c) const { return v[c]; }
};

/// Snapshot `sys` (all-zero counters when null); samples VmRSS if `rss`.
Counters snapshot(hrt::System* sys, bool rss);

/// One recorded span.  `parent` indexes the enclosing span (-1 for a phase).
struct Span {
  const char* name = "";
  int parent = -1;
  std::uint32_t run = 0;  // iteration id within the process
  double t0 = 0.0;
  double t1 = 0.0;
  Counters c0;
  Counters c1;
};

/// Span recorder.  Disabled, every call is a branch and nothing is stored.
/// Spans nest by call order; all of them stay in memory until the caller
/// writes them out (write_spans) after the run.
class Tracer {
 public:
  /// `run` tags every span with the repeat it belongs to.
  Tracer(bool enabled, std::uint32_t run) : enabled_(enabled), run_(run) {}

  /// Counter source for subsequent snapshots (null between Systems).
  void set_system(hrt::System* sys) { sys_ = sys; }

  /// Open a span; `rss` also samples process memory at both boundaries
  /// (a /proc read, so per-operation spans skip it).
  int open(const char* name, bool rss) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run_;
    s.c0 = snapshot(sys_, rss);
    s.t0 = now_s();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void close(int idx, bool rss) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.t1 = now_s();
    s.c1 = snapshot(sys_, rss);
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint32_t run_;
  hrt::System* sys_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.  Phase spans ("setup", "run", "check") and the set-up calls
/// sample memory; per-operation spans do not.
class Scope {
 public:
  Scope(Tracer& t, const char* name, bool rss = false)
      : t_(t), rss_(rss), idx_(t.open(name, rss)) {}
  ~Scope() { t_.close(idx_, rss_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  bool rss_;
  int idx_;
};

/// Self time of span `i`: its duration minus its direct children's.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Write spans as JSON lines (one object per span, counters at both ends).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
