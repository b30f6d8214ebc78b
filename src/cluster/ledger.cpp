#include "cluster/ledger.hpp"

#include <string>

#include "audit/auditor.hpp"
#include "global/ledger.hpp"
#include "resilience/storm.hpp"

namespace hrt::cluster {

const char* node_state_name(NodeState s) {
  switch (s) {
    case NodeState::kUp:
      return "up";
    case NodeState::kDraining:
      return "draining";
    case NodeState::kDrained:
      return "drained";
    case NodeState::kDown:
      return "down";
  }
  return "?";
}

ClusterLedger::Entry ClusterLedger::recompute(
    const global::UtilizationLedger& src,
    const resilience::StormController* storm, NodeState state) {
  Entry e;
  e.state = state;
  e.cpus = src.num_cpus();
  for (std::uint32_t c = 0; c < src.num_cpus(); ++c) {
    e.committed += src.committed_raw(c);
    if (state == NodeState::kUp || state == NodeState::kDraining) {
      e.capacity += src.capacity_raw(c);
    }
    if (storm != nullptr && storm->in_storm(c)) ++e.storm_cpus;
  }
  return e;
}

void ClusterLedger::refresh(std::uint32_t node,
                            const global::UtilizationLedger& src,
                            const resilience::StormController* storm,
                            NodeState state) {
  entries_[node] = recompute(src, storm, state);
}

double ClusterLedger::total_committed() const {
  rt::fp::Raw sum = 0;
  for (const Entry& e : entries_) sum += e.committed;
  return rt::fp::to_double(sum);
}

bool ClusterLedger::audit_node(audit::Auditor& auditor, sim::Nanos now,
                               std::uint32_t node,
                               const global::UtilizationLedger& src,
                               const resilience::StormController* storm) const {
  if (!auditor.enabled()) return true;
  auditor.count_check();
  const Entry& cached = entries_[node];
  const Entry live = recompute(src, storm, cached.state);
  if (cached.committed != live.committed) {
    auditor.record(audit::Invariant::kClusterLedger, node, now,
                   "node " + std::to_string(node) + " committed rollup " +
                       std::to_string(cached.committed) +
                       " != live per-CPU sum " + std::to_string(live.committed));
    return false;
  }
  if (cached.capacity != live.capacity) {
    auditor.record(audit::Invariant::kClusterLedger, node, now,
                   "node " + std::to_string(node) + " capacity rollup " +
                       std::to_string(cached.capacity) +
                       " != live per-CPU sum " + std::to_string(live.capacity));
    return false;
  }
  if ((cached.state == NodeState::kDown || cached.state == NodeState::kDrained) &&
      cached.capacity != 0) {
    auditor.record(audit::Invariant::kClusterLedger, node, now,
                   "node " + std::to_string(node) + " is " +
                       node_state_name(cached.state) +
                       " but publishes non-zero capacity " +
                       std::to_string(cached.capacity));
    return false;
  }
  return true;
}

}  // namespace hrt::cluster
