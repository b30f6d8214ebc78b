// Event tracing.
//
// The paper verifies hard real-time behavior *externally*: the scheduler
// toggles pins on a parallel port which an oscilloscope monitors (section
// 5.2).  In the simulated machine, the equivalent signal path is a trace of
// timestamped channel transitions; the ScopeAnalyzer (scope.hpp) then plays
// the role of the oscilloscope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hrt::sim {

/// What a trace record describes.
enum class TraceKind : std::uint8_t {
  kPin,            // GPIO pin level change (value = new level)
  kThreadActive,   // thread dispatched (value = thread id)
  kThreadInactive, // thread descheduled (value = thread id)
  kIrqEnter,       // interrupt handler entry (value = vector)
  kIrqExit,        // interrupt handler exit (value = vector)
  kSchedPass,      // scheduler pass executed (value = pass sequence)
  kSwitch,         // context switch performed (value = new thread id)
  kCustom,         // benchmark-defined
};

struct TraceRecord {
  Nanos time;
  std::uint32_t cpu;
  TraceKind kind;
  std::int64_t value;
};

/// Append-only trace buffer.  Disabled by default; recording every scheduler
/// event in a 255-CPU run would swamp memory, so benchmarks enable it only
/// on the CPUs/channels they observe.
///
/// Besides the merged record stream, the trace keeps each CPU's record
/// positions as it appends, so a per-CPU consumer (the EDF replay oracle,
/// filter(kind, cpu)) walks only that CPU's records instead of the whole
/// machine's.
class Trace {
 public:
  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Tracing is off on the hot path of every untraced run: keep that case
  // one inline branch, with the append out of line.
  void record(Nanos t, std::uint32_t cpu, TraceKind kind, std::int64_t value) {
    if (enabled_) append(t, cpu, kind, value);
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  /// Indices into records() of `cpu`'s records, in append order (empty for
  /// a CPU that never recorded).  Valid until the next record or clear().
  [[nodiscard]] std::span<const std::uint32_t> positions(
      std::uint32_t cpu) const {
    if (cpu >= by_cpu_.size()) return {};
    return by_cpu_[cpu];
  }
  void clear() {
    records_.clear();
    by_cpu_.clear();
  }

  /// All records of one kind (optionally restricted to one cpu; cpu == ~0u
  /// means any).
  [[nodiscard]] std::vector<TraceRecord> filter(
      TraceKind kind, std::uint32_t cpu = ~0u) const;

 private:
  void append(Nanos t, std::uint32_t cpu, TraceKind kind,
              std::int64_t value);

  bool enabled_ = false;
  std::vector<TraceRecord> records_;
  std::vector<std::vector<std::uint32_t>> by_cpu_;  // positions, per CPU
};

}  // namespace hrt::sim
