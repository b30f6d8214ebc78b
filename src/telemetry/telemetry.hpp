// Telemetry hub: flight recorder + metrics + SLO monitor behind one handle
// (docs/OBSERVABILITY.md).
//
// The scheduler stack carries a single `telemetry::Telemetry*` (null when
// the subsystem is disabled — the same convention as the auditor and the
// placement ledger), so the hot-path cost of telemetry-off is one pointer
// test.  An event site appends its record with recorder().record(); the
// recorder's per-(CPU, kind) counts are the per-CPU event counters.  The
// hooks below are for what is more than one record: completions feed the
// metrics and the SLO monitor, pass spans and capacity are gauges.  All of
// it is a pure host-side observer: it charges no simulated time and
// mutates no scheduler state, which is what makes a telemetry-on run
// bit-identical (same switches, same misses, same audit results) to a
// telemetry-off run by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "rt/constraints.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/slo.hpp"

namespace hrt::audit {
class Auditor;
}

namespace hrt::telemetry {

struct Config {
  /// Master switch.  Off (the default) means the kernel carries a null
  /// pointer, every hook returns at once, and the flight recorder holds no
  /// rings; rt::System still constructs the hub, so telemetry() is always
  /// valid.
  bool enabled = false;
  RecorderConfig recorder{};
  std::vector<SloSpec> slos;
  /// Raise an audit kSloBudget violation when an SLO alert fires (requires
  /// an attached, enabled auditor).
  bool slo_audit = true;
  /// Every admitted real-time thread group gets a derived SLO spec
  /// (derive_group_slo, docs/OBSERVABILITY.md): window = group_slo_windows
  /// periods (or deadline windows for sporadic groups), budget
  /// group_slo_budget.
  double group_slo_budget = 0.01;
  std::uint64_t group_slo_windows = 100;
};

class Telemetry {
 public:
  Telemetry(std::uint32_t num_cpus, Config cfg);

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Optional: route SLO alerts into the audit report (kSloBudget).
  void attach_auditor(audit::Auditor* auditor) { auditor_ = auditor; }

  // --- hot-path hooks (all no-ops when disabled) -------------------------

  /// Executor-measured scheduler handler span (irq + pass + switch), ns.
  void on_pass_span(std::uint32_t cpu, double span_ns);
  /// Arrival close.  `lateness` is signed: > 0 is a deadline miss by that
  /// much, <= 0 met the deadline with -lateness slack.
  void on_completion(std::uint32_t cpu, sim::Nanos now, std::uint32_t tid,
                     std::string_view name, sim::Nanos lateness);
  /// Whole deadline windows skipped by a late periodic arrival (counted as
  /// misses; no slack/lateness sample of their own).
  void on_skipped_windows(std::uint32_t cpu, sim::Nanos now, std::uint32_t tid,
                          std::string_view name, std::uint64_t n);
  /// Gauge: effective RT capacity published for a CPU.
  void set_effective_capacity(std::uint32_t cpu, double cap);

  /// Auto-derive a burn-rate SLO for an admitted thread group from its
  /// admitted constraints: spec "group:<name>" matching "<name>." threads.
  /// The group admission protocol's commit step calls this; specs are
  /// deduplicated by name, so re-admission is idempotent.  No-op when
  /// disabled, for a non-real-time group, or when "group:<name>" already
  /// exists.
  void derive_group_slo(std::string_view group_name,
                        const rt::Constraints& admitted);

  // --- components --------------------------------------------------------

  /// Event sites append here; a disabled hub's recorder has no rings and
  /// drops every record.
  [[nodiscard]] FlightRecorder& recorder() { return *recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const { return *recorder_; }
  [[nodiscard]] MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] SloMonitor& slo() { return *slo_; }
  [[nodiscard]] const SloMonitor& slo() const { return *slo_; }
  [[nodiscard]] audit::Auditor* auditor() const { return auditor_; }

 private:
  Config cfg_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<SloMonitor> slo_;
  audit::Auditor* auditor_ = nullptr;
};

}  // namespace hrt::telemetry
