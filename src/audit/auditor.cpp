#include "audit/auditor.hpp"

namespace hrt::audit {

const char* invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::kQueueState:
      return "queue-state";
    case Invariant::kBudget:
      return "budget";
    case Invariant::kUtilization:
      return "utilization";
    case Invariant::kEdfOrder:
      return "edf-order";
    case Invariant::kTimerArm:
      return "timer-arm";
    case Invariant::kGroup:
      return "group";
    case Invariant::kReplay:
      return "replay";
    case Invariant::kMigration:
      return "migration";
    case Invariant::kShedState:
      return "shed-state";
    case Invariant::kEffectiveCapacity:
      return "effective-capacity";
    case Invariant::kSloBudget:
      return "slo-budget";
  }
  return "?";
}

Auditor::Auditor(Config cfg) : cfg_(cfg) {
#ifdef HRT_FORCE_AUDIT
  // Forced-audit builds (CI's audited and sanitizers jobs) make every
  // auditor hot: any invariant violation in the tier-1 suite fails the
  // build even if the test did not opt in.
  cfg_.enabled = true;
  cfg_.throw_on_violation = true;
#endif
}

void Auditor::record(Invariant inv, std::uint32_t cpu, sim::Nanos time,
                     std::string detail) {
  ++total_violations_;
  ++per_invariant_[static_cast<std::size_t>(inv)];
  if (cfg_.throw_on_violation) {
    throw AuditError(inv, std::string(invariant_name(inv)) + " violation on cpu " +
                              std::to_string(cpu) + " at t=" +
                              std::to_string(time) + "ns: " + detail);
  }
  if (violations_.size() < cfg_.max_recorded) {
    violations_.push_back(Violation{inv, cpu, time, std::move(detail)});
  }
}

void Auditor::clear() {
  violations_.clear();
  total_violations_ = 0;
  checks_run_ = 0;
  for (auto& c : per_invariant_) c = 0;
}

}  // namespace hrt::audit
