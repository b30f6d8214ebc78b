// Cluster utilization ledger: per-node rollups of the node tier's lock-free
// per-CPU UtilizationLedger words (docs/CLUSTER.md).
//
// The controller refreshes this cache once per control tick by summing each
// node's per-CPU committed/capacity words — the same Q32.32 raw fixed-point
// quanta the node's schedulers publish, so the rollup is exact integer
// arithmetic with no float drift.  Because the node ledger already carries
// the resilience controller's degraded capacity publication
// (StormController -> set_capacity), a storm-flagged node's degradation
// propagates cluster-wide through the same rollup; the entry additionally
// counts storm-flagged CPUs so placement can deprioritize the whole node.
//
// The kClusterLedger audit invariant (docs/AUDIT.md) recomputes the sums
// from the live node words at every tick and compares them to this cache
// bit-exactly — a stale or corrupted rollup is an audit violation, not a
// silent misplacement.  A down node must publish zero capacity (its frozen
// committed words are kept for post-mortem inspection).
#pragma once

#include <cstdint>
#include <vector>

#include "rt/fixed_point.hpp"
#include "sim/time.hpp"

namespace hrt::audit {
class Auditor;
}
namespace hrt::global {
class UtilizationLedger;
}
namespace hrt::resilience {
class StormController;
}

namespace hrt::cluster {

enum class NodeState : std::uint8_t {
  kUp,        // advancing, placeable
  kDraining,  // advancing, jobs being moved off, no new placements
  kDrained,   // advancing, empty of cluster jobs, no new placements
  kDown,      // frozen at its failure time
};

[[nodiscard]] const char* node_state_name(NodeState s);

class ClusterLedger {
 public:
  struct Entry {
    NodeState state = NodeState::kUp;
    rt::fp::Raw committed = 0;  // sum of per-CPU committed words
    rt::fp::Raw capacity = 0;   // sum of published (degraded) capacities;
                                // forced to 0 while the node is down/drained
    std::uint32_t storm_cpus = 0;
    std::uint32_t cpus = 0;
  };

  explicit ClusterLedger(std::uint32_t nodes) : entries_(nodes) {}

  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] const Entry& entry(std::uint32_t node) const {
    return entries_[node];
  }

  /// Re-sum one node's per-CPU words into the cache.  `storm` may be null
  /// (offline tests).  Down and drained nodes contribute zero capacity —
  /// drained keeps serving what it still runs, but offers nothing new.
  void refresh(std::uint32_t node, const global::UtilizationLedger& src,
               const resilience::StormController* storm, NodeState state);

  [[nodiscard]] double committed(std::uint32_t node) const {
    return rt::fp::to_double(entries_[node].committed);
  }
  /// Capacity the cluster may place against: zero unless the node is up.
  /// (A draining node keeps its capacity on the books for what it still
  /// runs, but the controller's placement loop excludes it separately.)
  [[nodiscard]] double capacity(std::uint32_t node) const {
    return rt::fp::to_double(entries_[node].capacity);
  }
  [[nodiscard]] double headroom(std::uint32_t node) const {
    const Entry& e = entries_[node];
    return e.capacity > e.committed ? rt::fp::to_double(e.capacity - e.committed)
                                    : 0.0;
  }
  [[nodiscard]] bool storm_flagged(std::uint32_t node) const {
    return entries_[node].storm_cpus > 0;
  }

  [[nodiscard]] double total_committed() const;

  /// kClusterLedger invariant: recompute node's sums from the live words and
  /// compare to the cache bit-exactly; check the down/drained zero-capacity
  /// rule.  Returns true when consistent; records a violation otherwise.
  bool audit_node(audit::Auditor& auditor, sim::Nanos now, std::uint32_t node,
                  const global::UtilizationLedger& src,
                  const resilience::StormController* storm) const;

  /// Seeded-fault hook (tests only): corrupt the cached committed rollup so
  /// a test can prove the audit catches real divergence.
  void corrupt_committed(std::uint32_t node, rt::fp::Raw delta) {
    entries_[node].committed += delta;
  }

 private:
  static Entry recompute(const global::UtilizationLedger& src,
                         const resilience::StormController* storm,
                         NodeState state);

  std::vector<Entry> entries_;
};

}  // namespace hrt::cluster
