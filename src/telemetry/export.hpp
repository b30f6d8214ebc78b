// Snapshot / export layer (docs/OBSERVABILITY.md).
//
// Two output formats:
//   * Chrome trace-event JSON ("traceEvents" array) — loadable in Perfetto
//     or chrome://tracing.  Flight-recorder records become instant events
//     ("i") named by kind; consecutive kSwitch records on one CPU become
//     duration events ("X") for the dispatched thread; effective-capacity
//     gauges become counter events ("C").  pid = cpu + 1 (Perfetto treats
//     pid 0 as "unknown"), tid = thread id, ts in microseconds with the
//     exact nanosecond timestamp preserved in args.t.
//   * Metrics JSON — the aggregate schema documented in docs/PERFORMANCE.md
//     (per-CPU record counts, completions and pass spans, per-thread
//     slack/lateness quantiles, SLO status, recorder accounting).
//
// A minimal tolerant parser for the Chrome format rides along so tests and
// the bench can round-trip an export without a JSON dependency.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/record.hpp"

namespace hrt::sim {
class Trace;
}

namespace hrt::telemetry {

class Telemetry;

/// Write a merged record stream as Chrome trace-event JSON: one instant
/// per record, one "X" run span between consecutive switch records of a
/// CPU, and, given a hub, one effective-capacity "C" counter per CPU.
void write_chrome_trace(std::ostream& os, const std::vector<Record>& events,
                        const Telemetry* tel = nullptr);

/// Convenience: snapshot all rings of `tel` and export them.
void write_chrome_trace(std::ostream& os, const Telemetry& tel);

/// Adapt a sim::Trace (machine-level trace buffer) into flight-recorder
/// records so the same exporter — and the same oracle cross-checks — apply:
/// kSwitch -> kSwitch, kSchedPass -> kPass, kIrqEnter -> kKick-like custom.
/// Only records of `cpu` are taken (cpu == ~0u takes all).
[[nodiscard]] std::vector<Record> from_sim_trace(const sim::Trace& trace,
                                                 std::uint32_t cpu = ~0u);

/// One parsed Chrome trace event (subset of fields the tests need).
struct ParsedEvent {
  std::string name;
  std::string phase;    // "i", "X", "C", ...
  double ts_us = 0.0;   // Chrome timestamp (microseconds)
  std::int64_t t_ns = 0;  // exact ns from args.t (0 if absent)
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  double dur_us = 0.0;
};

struct ParsedTrace {
  bool ok = false;
  std::string error;
  std::vector<ParsedEvent> events;
};

/// Minimal tolerant parser for the exporter's own output (and for any
/// {"traceEvents": [...]} document with flat string/number fields).  Not a
/// general JSON parser; good enough to validate round-trips in tests.
[[nodiscard]] ParsedTrace parse_chrome_trace(std::string_view json);

/// Aggregate metrics snapshot as JSON (schema: docs/PERFORMANCE.md).  The
/// document is formatted into one buffer and written to `os` in one call.
void write_metrics_json(std::ostream& os, const Telemetry& tel,
                        sim::Nanos now);

}  // namespace hrt::telemetry
