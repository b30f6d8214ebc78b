// Flight-recorder record format (docs/OBSERVABILITY.md).
//
// Every instrumentation point in the scheduler stack emits one fixed-size
// binary record into its CPU's ring.  The format is deliberately compact —
// 24 bytes, no strings, no allocation — so the recorder's cost per event is
// a handful of stores and stays off the simulated machine's books entirely
// (telemetry is a pure observer: it charges no simulated time, which is what
// makes a telemetry-on run bit-identical to a telemetry-off run).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace hrt::telemetry {

/// What a flight-recorder record describes.  The `arg` payload per kind:
///   kPass          pass reason (nk::PassReason)
///   kSwitch        none (tid = dispatched thread)
///   kKick          none
///   kTimerArm      one-shot delay in ns
///   kAdmitOk/Rej   requested utilization in ppm
///   kDeadlineMiss  lateness in ns (tid = missing thread)
///   kMigrate*      peer CPU
///   kAperiodicMigrate  source CPU (recorded on the destination)
///   kSplitPlan     number of pipeline chunks
///   kStorm*/kDrain/kShed/kRestore  observed fraction / moved util in ppm
///   kBarrierArrive/Release  arrival count
///   kSloAlert      burn rate in ppm (arg), tid = 0
///   kNodeUp/Down/Drain  cluster node lifecycle (cpu = node id)
///   kReplace       re-placement of a cluster job (tid = job id,
///                  arg = destination node)
///   kPreempt       cluster-level best-effort preemption (tid = job id)
///   kClusterShed   cluster-level shed of an RT job (tid = job id,
///                  arg = tenant criticality)
///   kCustom        benchmark-defined
enum class EventKind : std::uint8_t {
  kPass = 0,
  kSwitch,
  kKick,
  kTimerArm,
  kAdmitOk,
  kAdmitReject,
  kDeadlineMiss,
  kMigrateRequest,
  kMigrateOut,
  kMigrateIn,
  kAperiodicMigrate,
  kSplitPlan,
  kStormEnter,
  kStormExit,
  kDrain,
  kShed,
  kRestore,
  kBarrierArrive,
  kBarrierRelease,
  kSloAlert,
  kNodeUp,
  kNodeDown,
  kNodeDrain,
  kReplace,
  kPreempt,
  kClusterShed,
  kCustom,
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kCustom) + 1;

[[nodiscard]] const char* event_kind_name(EventKind k);

/// One flight-recorder entry.  `gen` carries the low bits of the ring lap
/// count at write time, so a consumer looking at a raw dump can tell records
/// from different wraparound generations apart even without the ring's
/// sequence metadata.
struct Record {
  sim::Nanos time = 0;     // virtual (simulated) nanoseconds
  std::int64_t arg = 0;    // kind-specific payload (see EventKind)
  std::uint32_t tid = 0;   // thread id, or 0 when not thread-scoped
  std::uint16_t cpu = 0;   // emitting CPU
  EventKind kind = EventKind::kCustom;
  std::uint8_t gen = 0;    // ring generation (lap) low byte
};

static_assert(sizeof(Record) == 24, "flight-recorder records must stay compact");

/// A utilization or fraction as a ppm payload, rounded to nearest and
/// clamped to [0, INT64_MAX].
[[nodiscard]] inline std::int64_t to_ppm(double x) {
  if (!(x > 0.0)) return 0;
  const double ppm = x * 1e6;
  if (ppm >= 9.2e18) return INT64_MAX;
  return static_cast<std::int64_t>(std::llround(ppm));
}

}  // namespace hrt::telemetry
