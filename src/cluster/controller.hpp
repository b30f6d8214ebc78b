// ClusterController: the cluster tier over N simulated nodes
// (docs/CLUSTER.md).
//
// Each node is a full rt::System over its own hw::Machine; the controller
// drives every node's sim engine to common control-period boundaries under
// one cluster clock, then runs one control tick host-side.  Nothing the
// controller does charges simulated time on any node — like telemetry, it
// is an out-of-band observer/actuator whose only in-sim effects go through
// the node tier's public spawn/evict surfaces, so every node's trace stays
// replay-oracle-checkable on its own.
//
// The controller keeps no copy of node load: whenever it needs a node's
// committed utilization, capacity or storm flag it sums that node's
// per-CPU global::UtilizationLedger entries (exact raw Q32.32 sums), and
// the node's state decides whether its capacity counts.  Nodes only move
// between ticks, so every read inside one tick sees the same words.
//
// The control tick, in order:
//   1. failure detection — a node whose engine stalled before the tick
//      boundary missed its heartbeat; mark it down, fence its placements
//      (zombie eviction flags, for a later restore), and re-queue its jobs.
//   2. eviction-record cleanup — records whose threads all exited stop
//      counting as prospective headroom (their demand has left the node's
//      words).
//   3. drain progress — make-before-break: re-place each job still on a
//      draining node, evict the original only after the replacement landed.
//   4. job state tracking — in-flight admissions resolve to running (or
//      back to pending on give-up); replace latency is recorded when a job
//      lost to a failure runs again.
//   5. overload coordination — a node whose committed RT demand exceeds its
//      degraded effective capacity (SMI storm) gets its least-critical job
//      moved off; this is the machine-wide shed coordination the resilience
//      tier deferred to the cluster.
//   6. RT placement — pending RT jobs in (criticality, fairshare-excess,
//      arrival) order over first/best/worst-fit across nodes; when nothing
//      fits, jobs of strictly less critical tenants are shed to make room.
//   7. best-effort preemption + backfill — BE jobs occupy slack-derived
//      slots; RT demand shrinking a node's slack preempts BE jobs off it,
//      and pending BE jobs backfill wherever slots remain.
//   8. availability accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "cluster/tenant.hpp"
#include "rt/system.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::cluster {

enum class NodeState : std::uint8_t {
  kUp,        // advancing, placeable
  kDraining,  // advancing, jobs being moved off, no new placements
  kDrained,   // advancing, empty of cluster jobs, no new placements
  kDown,      // frozen at its failure time
};

[[nodiscard]] const char* node_state_name(NodeState s);

class ClusterController {
 public:
  /// Cluster heartbeat/control tick.  Failure detection latency is bounded
  /// by one period.
  static constexpr sim::Nanos kControlPeriod = sim::micros(500);

  struct Options {
    std::uint32_t nodes = 3;
    /// Template for every node's rt::System; node i gets seed
    /// node_options.seed + i so nodes decorrelate but stay reproducible.
    hrt::System::Options node_options{};
    bool failover = true;  // off = the no-failover baseline for the bench
    /// Slack utilization one best-effort worker slot represents: a node
    /// offers floor(headroom / best_effort_slot_util) BE slots.
    double best_effort_slot_util = 0.25;
    /// Spawn/admission failures before a job is marked kFailed.
    std::uint32_t max_place_attempts = 8;
    /// Controller-level auditor (the telemetry hub's SLO alerts report
    /// into it) and telemetry.  The telemetry hub's rings are indexed by
    /// NODE id, not CPU id.
    audit::Config audit{};
    telemetry::Config telemetry{};
  };

  struct JobInfo {
    JobId id = 0;
    std::string tenant;
    std::string name;
    JobKind kind = JobKind::kGang;
    JobState state = JobState::kPending;
    std::uint32_t node = kInvalidNode;
    std::uint32_t threads_alive = 0;
    std::uint32_t threads_admitted = 0;
    /// Deadline misses of the CURRENT placement's threads (a re-placed
    /// job's counter restarts at re-admission — this is what the
    /// zero-post-failover-miss gate reads).
    std::uint64_t misses = 0;
    std::uint64_t arrivals = 0;
    std::uint32_t placements = 0;  // spawns that succeeded (1 = never moved)
    sim::Nanos last_replace_latency = -1;  // fail -> running again
  };

  struct TenantInfo {
    TenantSpec spec;
    double placed_util = 0.0;      // demand of live placements
    double fair_share = 0.0;       // weight slice of effective capacity
    sim::Nanos delivered_ns = 0;   // RT availability credit
    sim::Nanos expected_ns = 0;
  };

  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t placements = 0;
    std::uint64_t replacements = 0;  // failover + drain + overload moves
    std::uint64_t failed_placements = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t backfills = 0;
    std::uint64_t sheds = 0;
    std::uint64_t failovers = 0;  // node-down events processed
    std::uint64_t drains = 0;     // drain_node requests
    sim::RunningStats detect_ns;   // node failure -> detection
    sim::RunningStats replace_ns;  // node failure -> job running again
    sim::Nanos rt_delivered_ns = 0;
    sim::Nanos rt_expected_ns = 0;
  };

  /// Throws std::invalid_argument for zero nodes, a NaN, infinite,
  /// non-positive or sub-quantum (< 2^-32) best_effort_slot_util, or zero
  /// max_place_attempts.
  explicit ClusterController(Options opt);
  ~ClusterController();

  ClusterController(const ClusterController&) = delete;
  ClusterController& operator=(const ClusterController&) = delete;

  /// Register a tenant before submitting its jobs.  Unknown tenants named
  /// by a JobSpec are auto-registered with default weight/criticality.
  void add_tenant(TenantSpec spec);

  /// Queue a job; placement happens at the next control tick.
  JobId submit(JobSpec spec);

  /// Advance the whole cluster, ticking at every control-period boundary.
  void run_for(sim::Nanos d);
  [[nodiscard]] sim::Nanos now() const { return now_; }

  /// Crash a node at cluster time `at` (or at the current time when `at` is
  /// in the past): its engine freezes there and the controller detects the
  /// missed heartbeat at the next tick.
  void fail_node(std::uint32_t node, sim::Nanos at = -1);
  /// Graceful drain: no new placements, existing jobs move off
  /// make-before-break over the following ticks.
  void drain_node(std::uint32_t node);
  /// Bring a down or drained node back: zombie threads of fenced placements
  /// exit as the node catches up to cluster time, then capacity returns.
  void restore_node(std::uint32_t node);

  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] hrt::System& node(std::uint32_t id) { return *nodes_[id].sys; }
  [[nodiscard]] NodeState node_state(std::uint32_t id) const {
    return nodes_[id].state;
  }
  /// Node `id`'s committed RT utilization: the sum of its per-CPU ledger
  /// words, read live.
  [[nodiscard]] double node_committed(std::uint32_t id) const;
  /// Capacity the cluster may place against: the sum of node `id`'s
  /// published (storm-degraded) per-CPU capacities while it is up or
  /// draining, zero once drained or down.  (A draining node keeps its
  /// capacity on the books for what it still runs, but placement excludes
  /// it separately.)
  [[nodiscard]] double node_capacity(std::uint32_t id) const;
  [[nodiscard]] audit::Auditor& auditor() { return *auditor_; }
  [[nodiscard]] telemetry::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] JobInfo job(JobId id) const;
  [[nodiscard]] std::vector<JobInfo> jobs() const;
  /// Live threads of the job's current placement (empty when not placed).
  /// For inspection — replay-oracle tests read constraints/gamma from them.
  [[nodiscard]] std::vector<const nk::Thread*> job_threads(JobId id) const;
  [[nodiscard]] std::vector<TenantInfo> tenants() const;

  /// Cluster RT availability so far: delivered / expected job-time.
  [[nodiscard]] double availability() const {
    return stats_.rt_expected_ns > 0
               ? static_cast<double>(stats_.rt_delivered_ns) /
                     static_cast<double>(stats_.rt_expected_ns)
               : 1.0;
  }

 private:
  struct Placement {
    std::uint32_t node = kInvalidNode;
    std::vector<nk::Thread*> threads;
    std::vector<nk::Thread::Id> ids;  // validity guard against pool reuse
    std::shared_ptr<std::atomic<bool>> evict;
    double demand = 0.0;  // RT utilization this placement books
  };

  struct Job {
    JobId id = 0;
    JobSpec spec;
    std::size_t tenant = 0;  // index into tenants_
    JobState state = JobState::kPending;
    Placement cur;
    std::uint32_t attempts = 0;
    std::uint32_t placements = 0;
    sim::Nanos lost_at = -1;  // node-failure time awaiting re-run
    sim::Nanos last_replace_latency = -1;
    /// Make-before-break move in flight: the old placement still serves
    /// while the new one admits, so availability is not docked.
    bool seamless = false;
  };

  struct Node {
    std::unique_ptr<hrt::System> sys;
    NodeState state = NodeState::kUp;
    sim::Nanos fail_at = -1;
    sim::Nanos down_since = -1;
    double inflight = 0.0;  // demand placed but not yet in the node's words
    /// Evictions whose threads have not exited yet: their demand is counted
    /// as prospective headroom so the shed loop does not over-shed while
    /// earlier evictions are still landing.
    struct EvictionRecord {
      std::vector<nk::Thread*> threads;
      std::vector<nk::Thread::Id> ids;
      double demand = 0.0;
    };
    std::vector<EvictionRecord> evictions;
    double shed_credit = 0.0;  // recomputed from `evictions` each tick
  };

  void tick(sim::Nanos dt);
  void detect_failures();
  void retire_evictions();
  void progress_drains();
  void update_job_states();
  void coordinate_overload();
  void place_pending_rt();
  void enforce_best_effort_slots();
  void backfill_best_effort();
  void account_availability(sim::Nanos dt);

  [[nodiscard]] double job_demand(const Job& j) const;
  [[nodiscard]] bool node_placeable(std::uint32_t node) const;
  [[nodiscard]] bool node_storm_hit(std::uint32_t node) const;
  [[nodiscard]] double node_headroom(std::uint32_t node) const;
  [[nodiscard]] bool node_fits(std::uint32_t node, const Job& j) const;
  [[nodiscard]] std::vector<std::uint32_t> candidate_nodes(
      std::uint32_t exclude) const;
  bool place_job(Job& j, std::uint32_t exclude);
  bool move_job(Job& j, std::uint32_t exclude);
  bool try_shed_for(const Job& j);
  void teardown_placement(Job& j, JobState next_state);
  void poll_placement(const Job& j, std::uint32_t* alive,
                      std::uint32_t* admitted) const;
  [[nodiscard]] std::size_t tenant_index(const std::string& name);
  [[nodiscard]] double fair_share(std::size_t tenant) const;
  [[nodiscard]] double tenant_placed_util(std::size_t tenant) const;
  void emit(std::uint32_t node, telemetry::EventKind kind, std::uint32_t tid,
            std::int64_t arg);
  [[nodiscard]] JobInfo info_of(const Job& j) const;
  [[nodiscard]] std::uint32_t be_threads_on(std::uint32_t node) const;

  Options opt_;
  std::vector<Node> nodes_;
  std::unique_ptr<audit::Auditor> auditor_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::vector<TenantSpec> tenants_;
  std::vector<sim::Nanos> tenant_delivered_;
  std::vector<sim::Nanos> tenant_expected_;
  std::vector<Job> jobs_;
  Stats stats_;
  sim::Nanos now_ = 0;
  JobId next_job_id_ = 1;
};

}  // namespace hrt::cluster
