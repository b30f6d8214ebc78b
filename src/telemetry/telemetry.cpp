#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "audit/auditor.hpp"

namespace hrt::telemetry {

namespace {
// Distinct threads tracked with full histograms; beyond this only the
// per-CPU counters grow (overflow is counted, never silent).
constexpr std::size_t kMaxThreadMetrics = 4096;
}  // namespace

Telemetry::Telemetry(std::uint32_t num_cpus, Config cfg)
    : cfg_(std::move(cfg)),
      // Off means null: a disabled hub records nothing, so it holds no
      // rings (256 CPUs x 4096 slots would be 32 MB).
      recorder_(std::make_unique<FlightRecorder>(cfg_.enabled ? num_cpus : 0,
                                                 cfg_.recorder)),
      metrics_(std::make_unique<MetricsRegistry>(num_cpus, kMaxThreadMetrics)),
      slo_(std::make_unique<SloMonitor>(cfg_.slos)) {
  slo_->set_alert_fn([this](std::size_t spec, sim::Nanos now, double burn) {
    // Alerts are machine-wide; attribute them to CPU 0's ring.
    recorder_->record(0, EventKind::kSloAlert, now, 0, to_ppm(burn));
    if (cfg_.slo_audit && auditor_ != nullptr && auditor_->enabled()) {
      const SloSpec& s = slo_->spec(spec);
      auditor_->record(audit::Invariant::kSloBudget, 0, now,
                       "slo '" + s.name + "' burn rate " +
                           std::to_string(burn) + " >= 1 (budget " +
                           std::to_string(s.miss_budget) + "/window)");
    }
  });
}

void Telemetry::on_pass_span(std::uint32_t cpu, double span_ns) {
  if (!cfg_.enabled) return;
  metrics_->cpu(cpu).pass_span_ns.add(span_ns);
}

void Telemetry::on_completion(std::uint32_t cpu, sim::Nanos now,
                              std::uint32_t tid, std::string_view name,
                              sim::Nanos lateness) {
  if (!cfg_.enabled) return;
  metrics_->on_completion(cpu, tid, name, lateness);
  if (lateness > 0) {
    recorder_->record(cpu, EventKind::kDeadlineMiss, now, tid, lateness);
  }
  slo_->on_completion(name, lateness > 0, now);
}

void Telemetry::on_skipped_windows(std::uint32_t cpu, sim::Nanos now,
                                   std::uint32_t tid, std::string_view name,
                                   std::uint64_t n) {
  if (!cfg_.enabled || n == 0) return;
  metrics_->on_skipped(cpu, tid, name, n);
  recorder_->record(cpu, EventKind::kDeadlineMiss, now, tid,
                    -static_cast<std::int64_t>(n));
  slo_->on_completion(name, true, now, n);
}

void Telemetry::set_effective_capacity(std::uint32_t cpu, double cap) {
  if (!cfg_.enabled) return;
  metrics_->cpu(cpu).effective_capacity = cap;
}

void Telemetry::derive_group_slo(std::string_view group_name,
                                 const rt::Constraints& admitted) {
  if (!cfg_.enabled || !admitted.is_realtime()) return;
  SloSpec s;
  s.name = "group:" + std::string(group_name);
  if (slo_->has(s.name)) return;
  // spawn_group_auto names members "<group>.<i>"; the trailing dot keeps a
  // group "g" from also matching a group "g2"'s workers.
  s.thread_match = std::string(group_name) + ".";
  s.miss_budget = cfg_.group_slo_budget;
  // One deadline window per arrival: periodic groups miss against the
  // period, sporadic ones against the deadline offset.
  const sim::Nanos window =
      admitted.cls == rt::ConstraintClass::kPeriodic
          ? admitted.period
          : admitted.deadline_offset - admitted.phase;
  const std::uint64_t n = cfg_.group_slo_windows > 0 ? cfg_.group_slo_windows : 1;
  s.window_ns = std::max<sim::Nanos>(sim::millis(1),
                                     window * static_cast<sim::Nanos>(n));
  slo_->add_spec(std::move(s));
}

}  // namespace hrt::telemetry
