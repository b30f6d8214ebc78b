#include "cluster/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "global/ledger.hpp"
#include "nautilus/behavior.hpp"
#include "nautilus/thread.hpp"

namespace hrt::cluster {

namespace {

/// Cluster-side eviction wrapper: the controller flips the shared flag and
/// the worker exits at its next action boundary (job-boundary semantics —
/// the same place migration hand-offs happen), releasing its utilization
/// through the scheduler's normal detach path.
class EvictableBehavior final : public nk::Behavior {
 public:
  EvictableBehavior(std::shared_ptr<std::atomic<bool>> stop,
                    std::unique_ptr<nk::Behavior> inner)
      : stop_(std::move(stop)), inner_(std::move(inner)) {}

  nk::Action next(nk::ThreadCtx& ctx) override {
    if (stop_->load(std::memory_order_relaxed)) return nk::Action::exit();
    return inner_->next(ctx);
  }

  [[nodiscard]] std::string describe() const override {
    return "evictable(" + inner_->describe() + ")";
  }

 private:
  std::shared_ptr<std::atomic<bool>> stop_;
  std::unique_ptr<nk::Behavior> inner_;
};

bool is_rt_kind(JobKind k) { return k != JobKind::kBestEffort; }

/// Best-effort workers run as background scavengers, well below the default
/// aperiodic priority.  Freshly spawned RT workers start aperiodic at the
/// default priority until their admission step commits — if best-effort
/// busy-loops ran at the same level they could starve that step forever and
/// the placement would hang in kPlacing.
constexpr rt::AperiodicPriority kBestEffortPriority =
    rt::kDefaultPriority + 10'000;

bool thread_live(const nk::Thread* t, nk::Thread::Id id) {
  // Pool reuse guard: a reaped TCB may be recycled under a new id; a stale
  // pointer with a changed id means OUR thread is gone.
  return t != nullptr && t->id == id && t->state != nk::Thread::State::kExited &&
         t->state != nk::Thread::State::kPooled;
}

}  // namespace

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

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::kGang:
      return "gang";
    case JobKind::kPipeline:
      return "pipeline";
    case JobKind::kBatch:
      return "batch";
    case JobKind::kBestEffort:
      return "best-effort";
  }
  return "?";
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kPending:
      return "pending";
    case JobState::kPlacing:
      return "placing";
    case JobState::kRunning:
      return "running";
    case JobState::kShed:
      return "shed";
    case JobState::kLost:
      return "lost";
    case JobState::kFailed:
      return "failed";
  }
  return "?";
}

ClusterController::ClusterController(Options opt) : opt_(std::move(opt)) {
  if (opt_.nodes == 0) {
    throw std::invalid_argument("ClusterController: need at least one node");
  }
  // A slot under one ledger quantum is no slot, and node headroom divided
  // by it could overflow the slot budget's integer.
  if (!std::isfinite(opt_.best_effort_slot_util) ||
      opt_.best_effort_slot_util < rt::fp::kUlp) {
    throw std::invalid_argument(
        "ClusterController: best_effort_slot_util must be finite and at "
        "least one ledger quantum (2^-32)");
  }
  if (opt_.max_place_attempts == 0) {
    throw std::invalid_argument(
        "ClusterController: max_place_attempts must be at least 1");
  }
  auditor_ = std::make_unique<audit::Auditor>(opt_.audit);
  // The cluster hub's "cpu" axis is the NODE id: one flight-recorder ring
  // and one counter row per node.
  telemetry_ = std::make_unique<telemetry::Telemetry>(opt_.nodes,
                                                      opt_.telemetry);
  if (telemetry_->enabled()) telemetry_->attach_auditor(auditor_.get());
  nodes_.resize(opt_.nodes);
  for (std::uint32_t i = 0; i < opt_.nodes; ++i) {
    hrt::System::Options o = opt_.node_options;
    o.seed += i;  // decorrelate nodes, stay reproducible
    nodes_[i].sys = std::make_unique<hrt::System>(std::move(o));
    nodes_[i].sys->boot();
    emit(i, telemetry::EventKind::kNodeUp, 0, 0);
  }
}

ClusterController::~ClusterController() = default;

void ClusterController::add_tenant(TenantSpec spec) {
  for (auto& t : tenants_) {
    if (t.name == spec.name) {
      t = std::move(spec);  // re-registration updates the knobs
      return;
    }
  }
  tenants_.push_back(std::move(spec));
  tenant_delivered_.push_back(0);
  tenant_expected_.push_back(0);
}

std::size_t ClusterController::tenant_index(const std::string& name) {
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].name == name) return i;
  }
  TenantSpec def;
  def.name = name;
  tenants_.push_back(std::move(def));
  tenant_delivered_.push_back(0);
  tenant_expected_.push_back(0);
  return tenants_.size() - 1;
}

JobId ClusterController::submit(JobSpec spec) {
  Job j;
  j.id = next_job_id_++;
  j.tenant = tenant_index(spec.tenant);
  j.spec = std::move(spec);
  jobs_.push_back(std::move(j));
  return jobs_.back().id;
}

void ClusterController::run_for(sim::Nanos d) {
  const sim::Nanos end = now_ + d;
  while (now_ < end) {
    const sim::Nanos next = std::min(end, now_ + kControlPeriod);
    const sim::Nanos dt = next - now_;
    for (Node& n : nodes_) {
      if (n.state == NodeState::kDown) continue;
      sim::Nanos target = next;
      if (n.fail_at >= 0) target = std::min(target, n.fail_at);
      if (n.sys->engine().now() < target) n.sys->run_until(target);
    }
    now_ = next;
    tick(dt);
  }
}

void ClusterController::fail_node(std::uint32_t node, sim::Nanos at) {
  Node& n = nodes_[node];
  if (n.state == NodeState::kDown) return;
  n.fail_at = std::max(now_, at);
}

void ClusterController::drain_node(std::uint32_t node) {
  Node& n = nodes_[node];
  if (n.state != NodeState::kUp) return;
  n.state = NodeState::kDraining;
  ++stats_.drains;
  emit(node, telemetry::EventKind::kNodeDrain, 0, 0);
}

void ClusterController::restore_node(std::uint32_t node) {
  Node& n = nodes_[node];
  if (n.state == NodeState::kUp) return;
  // A down node's engine is behind cluster time; the next advance catches it
  // up, and the zombie threads of its fenced placements exit at their first
  // action boundary — their jobs were already re-placed elsewhere, so
  // letting them run would double-execute.
  n.state = NodeState::kUp;
  n.fail_at = -1;
  n.down_since = -1;
  n.evictions.clear();
  emit(node, telemetry::EventKind::kNodeUp, 0, 0);
}

// --- control tick ----------------------------------------------------------

void ClusterController::tick(sim::Nanos dt) {
  ++stats_.ticks;
  detect_failures();
  retire_evictions();
  progress_drains();
  update_job_states();
  coordinate_overload();
  place_pending_rt();
  enforce_best_effort_slots();
  backfill_best_effort();
  account_availability(dt);
}

void ClusterController::detect_failures() {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.state == NodeState::kDown || n.fail_at < 0 || n.fail_at > now_) {
      continue;
    }
    // Missed heartbeat: the node's engine stalled at fail_at < tick time.
    n.state = NodeState::kDown;
    n.down_since = n.fail_at;
    n.evictions.clear();
    ++stats_.failovers;
    stats_.detect_ns.add(static_cast<double>(now_ - n.fail_at));
    emit(i, telemetry::EventKind::kNodeDown, 0, now_ - n.fail_at);
    for (Job& j : jobs_) {
      if (j.cur.node != i ||
          (j.state != JobState::kPlacing && j.state != JobState::kRunning)) {
        continue;
      }
      // Fence the frozen threads (they only matter if the node is later
      // restored), drop the placement, and hand the job back to placement.
      j.cur.evict->store(true, std::memory_order_relaxed);
      if (j.state == JobState::kPlacing && is_rt_kind(j.spec.kind)) {
        n.inflight = std::max(0.0, n.inflight - j.cur.demand);
      }
      j.cur = Placement{};
      j.seamless = false;
      if (opt_.failover) {
        j.state = JobState::kPending;
        j.lost_at = n.fail_at;
        j.attempts = 0;
      } else {
        j.state = JobState::kLost;
      }
    }
  }
}

void ClusterController::retire_evictions() {
  for (Node& n : nodes_) {
    // GC eviction records whose threads all exited: their utilization has
    // left the node's words, so they stop counting as prospective headroom.
    n.shed_credit = 0.0;
    auto& ev = n.evictions;
    ev.erase(std::remove_if(ev.begin(), ev.end(),
                            [](const Node::EvictionRecord& r) {
                              for (std::size_t k = 0; k < r.threads.size();
                                   ++k) {
                                if (thread_live(r.threads[k], r.ids[k])) {
                                  return false;
                                }
                              }
                              return true;
                            }),
             ev.end());
    for (const auto& r : ev) n.shed_credit += r.demand;
  }
}

void ClusterController::progress_drains() {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.state != NodeState::kDraining) continue;
    bool any_left = false;
    for (Job& j : jobs_) {
      if (j.cur.node != i ||
          (j.state != JobState::kRunning && j.state != JobState::kPlacing)) {
        continue;
      }
      // Make-before-break: only jobs already running move seamlessly; a
      // placement still admitting is simply torn down and re-queued.
      if (j.state == JobState::kRunning) {
        if (!move_job(j, i)) any_left = true;
      } else {
        teardown_placement(j, JobState::kPending);
      }
    }
    if (!any_left) {
      n.state = NodeState::kDrained;
      emit(i, telemetry::EventKind::kNodeDrain, 0, 1);
    }
  }
}

void ClusterController::update_job_states() {
  for (Job& j : jobs_) {
    if (j.state != JobState::kPlacing && j.state != JobState::kRunning) {
      continue;
    }
    if (j.cur.node == kInvalidNode) continue;
    std::uint32_t alive = 0;
    std::uint32_t admitted = 0;
    poll_placement(j, &alive, &admitted);
    const auto expected = static_cast<std::uint32_t>(j.cur.threads.size());
    if (alive < expected) {
      // A worker exited before eviction: in-sim admission gave up (or the
      // whole group admission failed).  All-or-nothing at the job level:
      // tear the rest down and retry placement from scratch.
      teardown_placement(j, JobState::kPending);
      ++j.attempts;
      ++stats_.failed_placements;
      if (j.attempts >= opt_.max_place_attempts) j.state = JobState::kFailed;
      continue;
    }
    if (j.state == JobState::kPlacing) {
      const bool ready = is_rt_kind(j.spec.kind) ? admitted == expected
                                                 : alive == expected;
      if (ready) {
        j.state = JobState::kRunning;
        j.seamless = false;
        Node& n = nodes_[j.cur.node];
        if (is_rt_kind(j.spec.kind)) {
          n.inflight = std::max(0.0, n.inflight - j.cur.demand);
        }
        if (j.lost_at >= 0) {
          j.last_replace_latency = now_ - j.lost_at;
          stats_.replace_ns.add(static_cast<double>(j.last_replace_latency));
          j.lost_at = -1;
        }
      }
    }
  }
}

void ClusterController::coordinate_overload() {
  // Machine-wide shed coordination (docs/RESILIENCE.md follow-up): a node
  // whose committed RT demand no longer fits its degraded capacity gets its
  // least-critical job moved off — or shed when nowhere fits.  One job per
  // node per tick keeps the response gentle.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.state != NodeState::kUp) continue;
    const double over = node_committed(i) - node_capacity(i) - n.shed_credit;
    if (over <= 1e-9) continue;
    Job* victim = nullptr;
    for (Job& j : jobs_) {
      if (j.cur.node != i || j.state != JobState::kRunning ||
          !is_rt_kind(j.spec.kind)) {
        continue;
      }
      if (victim == nullptr || tenants_[j.tenant].criticality >
                                   tenants_[victim->tenant].criticality) {
        victim = &j;
      }
    }
    if (victim == nullptr) continue;
    if (!move_job(*victim, i)) {
      teardown_placement(*victim, JobState::kShed);
      ++stats_.sheds;
      emit(i, telemetry::EventKind::kClusterShed,
           static_cast<std::uint32_t>(victim->id),
           tenants_[victim->tenant].criticality);
    }
  }
}

void ClusterController::place_pending_rt() {
  std::vector<Job*> pending;
  for (Job& j : jobs_) {
    if (!is_rt_kind(j.spec.kind)) continue;
    if (j.state == JobState::kPending || j.state == JobState::kShed) {
      pending.push_back(&j);
    }
  }
  // Placement order: criticality first (failover must re-home the most
  // important tenants before anything else), then tenants under their fair
  // share before those over it, then submission order.
  std::stable_sort(pending.begin(), pending.end(),
                   [this](const Job* a, const Job* b) {
                     const std::uint32_t ca = tenants_[a->tenant].criticality;
                     const std::uint32_t cb = tenants_[b->tenant].criticality;
                     if (ca != cb) return ca < cb;
                     const bool oa =
                         tenant_placed_util(a->tenant) > fair_share(a->tenant);
                     const bool ob =
                         tenant_placed_util(b->tenant) > fair_share(b->tenant);
                     if (oa != ob) return !oa;
                     return a->id < b->id;
                   });
  for (Job* j : pending) {
    if (!place_job(*j, kInvalidNode)) {
      if (j->attempts >= opt_.max_place_attempts) {
        // Spawn/admission failed that many times (waiting for room does not
        // burn attempts): the job is structurally unplaceable.
        j->state = JobState::kFailed;
        continue;
      }
      // Nothing fits whole: shed strictly-less-critical jobs to make room;
      // the capacity lands over the next tick or two and this job (still
      // pending, placed first by criticality) takes it.
      try_shed_for(*j);
    }
  }
}

void ClusterController::enforce_best_effort_slots() {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.state != NodeState::kUp) continue;
    const auto budget = static_cast<std::int64_t>(
        node_headroom(i) / opt_.best_effort_slot_util);
    std::int64_t over = static_cast<std::int64_t>(be_threads_on(i)) - budget;
    while (over > 0) {
      // RT demand arrived and ate the slack: preempt whole best-effort
      // jobs, least-critical tenant first, newest job first.
      Job* victim = nullptr;
      for (Job& j : jobs_) {
        if (j.cur.node != i || j.spec.kind != JobKind::kBestEffort ||
            (j.state != JobState::kRunning && j.state != JobState::kPlacing)) {
          continue;
        }
        if (victim == nullptr ||
            tenants_[j.tenant].criticality >
                tenants_[victim->tenant].criticality ||
            (tenants_[j.tenant].criticality ==
                 tenants_[victim->tenant].criticality &&
             j.id > victim->id)) {
          victim = &j;
        }
      }
      if (victim == nullptr) break;
      over -= static_cast<std::int64_t>(victim->cur.threads.size());
      teardown_placement(*victim, JobState::kPending);
      ++stats_.preemptions;
      emit(i, telemetry::EventKind::kPreempt,
           static_cast<std::uint32_t>(victim->id),
           tenants_[victim->tenant].criticality);
    }
  }
}

void ClusterController::backfill_best_effort() {
  for (Job& j : jobs_) {
    if (j.spec.kind != JobKind::kBestEffort || j.state != JobState::kPending) {
      continue;
    }
    if (place_job(j, kInvalidNode) && j.placements > 1) {
      ++stats_.backfills;
    }
  }
}

void ClusterController::account_availability(sim::Nanos dt) {
  for (const Job& j : jobs_) {
    if (!is_rt_kind(j.spec.kind) || j.state == JobState::kFailed) continue;
    stats_.rt_expected_ns += dt;
    tenant_expected_[j.tenant] += dt;
    const bool served = j.state == JobState::kRunning ||
                        (j.state == JobState::kPlacing && j.seamless);
    if (served) {
      stats_.rt_delivered_ns += dt;
      tenant_delivered_[j.tenant] += dt;
    }
  }
}

// --- placement mechanics ---------------------------------------------------

double ClusterController::job_demand(const Job& j) const {
  switch (j.spec.kind) {
    case JobKind::kGang:
    case JobKind::kBatch:
      return j.spec.constraints.utilization() *
             static_cast<double>(j.spec.threads);
    case JobKind::kPipeline:
      return j.spec.constraints.utilization();
    case JobKind::kBestEffort:
      return 0.0;  // no RT reservation; BE occupancy is slot math
  }
  return 0.0;
}

bool ClusterController::node_placeable(std::uint32_t node) const {
  return nodes_[node].state == NodeState::kUp;
}

double ClusterController::node_committed(std::uint32_t node) const {
  const global::UtilizationLedger& l = nodes_[node].sys->placement().ledger();
  rt::fp::Raw sum = 0;
  for (std::uint32_t c = 0; c < l.num_cpus(); ++c) sum += l.committed_raw(c);
  return rt::fp::to_double(sum);
}

double ClusterController::node_capacity(std::uint32_t node) const {
  const NodeState st = nodes_[node].state;
  if (st != NodeState::kUp && st != NodeState::kDraining) return 0.0;
  const global::UtilizationLedger& l = nodes_[node].sys->placement().ledger();
  rt::fp::Raw sum = 0;
  for (std::uint32_t c = 0; c < l.num_cpus(); ++c) sum += l.capacity_raw(c);
  return rt::fp::to_double(sum);
}

bool ClusterController::node_storm_hit(std::uint32_t node) const {
  const global::UtilizationLedger& l = nodes_[node].sys->placement().ledger();
  for (std::uint32_t c = 0; c < l.num_cpus(); ++c) {
    if (l.storm_hit(c)) return true;
  }
  return false;
}

double ClusterController::node_headroom(std::uint32_t node) const {
  const double h =
      node_capacity(node) - node_committed(node) - nodes_[node].inflight;
  return h > 0.0 ? h : 0.0;
}

std::uint32_t ClusterController::be_threads_on(std::uint32_t node) const {
  std::uint32_t count = 0;
  for (const Job& j : jobs_) {
    if (j.cur.node == node && j.spec.kind == JobKind::kBestEffort &&
        (j.state == JobState::kRunning || j.state == JobState::kPlacing)) {
      count += static_cast<std::uint32_t>(j.cur.threads.size());
    }
  }
  return count;
}

bool ClusterController::node_fits(std::uint32_t node, const Job& j) const {
  if (!node_placeable(node)) return false;
  if (j.spec.kind == JobKind::kBestEffort) {
    const auto budget = static_cast<std::int64_t>(
        node_headroom(node) / opt_.best_effort_slot_util);
    return budget - static_cast<std::int64_t>(be_threads_on(node)) >=
           static_cast<std::int64_t>(j.spec.threads);
  }
  const double demand = job_demand(j);
  if (node_headroom(node) < demand) return false;
  // Per-CPU fit is the node's own placement engine's call, so the gate
  // never refuses what the node would place.
  const global::GlobalScheduler& placement = nodes_[node].sys->placement();
  if (j.spec.kind == JobKind::kGang) {
    // A gang needs n DISTINCT CPUs with per-thread headroom; the node sums
    // can't answer this.  spawn_group_auto places with this same call.
    return placement.engine()
               .choose_group(j.spec.threads, j.spec.constraints)
               .size() == j.spec.threads;
  }
  if (j.spec.kind == JobKind::kBatch) {
    const double u = j.spec.constraints.utilization();
    for (std::uint32_t c = 0; c < placement.ledger().num_cpus(); ++c) {
      if (placement.engine().fits(c, u)) return true;
    }
    return false;
  }
  return true;  // pipeline: the node's split planner is the authority
}

std::vector<std::uint32_t> ClusterController::candidate_nodes(
    std::uint32_t exclude) const {
  // Placement's CPU ranking (docs/GLOBAL.md) at node granularity:
  // storm-flagged nodes last (their published capacity is already degraded,
  // but quiet nodes are still the better first choice), then more headroom
  // first, then node id.  Each node's sort inputs are read once.
  struct Key {
    bool storm;
    double headroom;
    std::uint32_t node;
  };
  std::vector<Key> keys;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (i != exclude && node_placeable(i)) {
      keys.push_back(Key{node_storm_hit(i), node_headroom(i), i});
    }
  }
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.storm != b.storm) return !a.storm;
    return a.headroom > b.headroom;
  });
  std::vector<std::uint32_t> out(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) out[k] = keys[k].node;
  return out;
}

bool ClusterController::place_job(Job& j, std::uint32_t exclude) {
  const std::vector<std::uint32_t> candidates = candidate_nodes(exclude);
  // The cluster fit gate is advisory: it keeps jobs that merely need room
  // waiting (no attempt burned) until capacity frees up.  A job whose demand
  // exceeds every candidate's FULL effective capacity — or whose per-thread
  // utilization fits no single CPU anywhere — can never be helped by
  // waiting, so the gate is skipped and the node's authoritative admission
  // rejects it, burning an attempt toward kFailed instead of pending
  // forever.
  bool could_ever_fit = j.spec.kind == JobKind::kBestEffort;
  if (!could_ever_fit) {
    const double demand = job_demand(j);
    for (std::uint32_t node : candidates) {
      if (node_capacity(node) >= demand) {
        could_ever_fit = true;
        break;
      }
    }
  }
  if (could_ever_fit &&
      (j.spec.kind == JobKind::kGang || j.spec.kind == JobKind::kBatch)) {
    const double u = j.spec.constraints.utilization();
    could_ever_fit = false;
    for (std::uint32_t node : candidates) {
      const auto& nl = nodes_[node].sys->placement().ledger();
      for (std::uint32_t c = 0; c < nl.num_cpus(); ++c) {
        if (nl.capacity(c) >= u) {
          could_ever_fit = true;
          break;
        }
      }
      if (could_ever_fit) break;
    }
  }
  for (std::uint32_t node : candidates) {
    if (could_ever_fit && !node_fits(node, j)) continue;
    hrt::System& sys = *nodes_[node].sys;
    Placement p;
    p.node = node;
    p.evict = std::make_shared<std::atomic<bool>>(false);
    p.demand = job_demand(j);
    const auto evict = p.evict;
    const sim::Nanos chunk =
        j.spec.work_chunk > 0 ? j.spec.work_chunk : sim::millis(2);
    auto make_worker = [&evict, chunk](std::uint32_t) {
      return std::make_unique<EvictableBehavior>(
          evict, std::make_unique<nk::BusyLoopBehavior>(chunk));
    };
    // Placement-generation suffix keeps re-placements from colliding with
    // the group/thread names an earlier placement registered on this node.
    const std::string base =
        j.spec.name + "~" + std::to_string(j.placements);
    std::vector<nk::Thread*> threads;
    bool ok = false;
    switch (j.spec.kind) {
      case JobKind::kGang:
        threads = sys.spawn_group_auto(base, j.spec.threads,
                                       j.spec.constraints, make_worker);
        ok = !threads.empty();
        break;
      case JobKind::kPipeline:
        threads = sys.spawn_split(base, j.spec.constraints, make_worker);
        ok = !threads.empty();
        break;
      case JobKind::kBatch:
      case JobKind::kBestEffort: {
        std::vector<hrt::System::SpawnSpec> specs;
        specs.reserve(j.spec.threads);
        for (std::uint32_t i = 0; i < j.spec.threads; ++i) {
          hrt::System::SpawnSpec s;
          s.name = base + "." + std::to_string(i);
          s.behavior = make_worker(i);
          if (j.spec.kind == JobKind::kBatch) {
            s.constraints = j.spec.constraints;
            s.priority = j.spec.constraints.priority;
          } else {
            const rt::AperiodicPriority mu =
                j.spec.constraints.priority == rt::kDefaultPriority
                    ? kBestEffortPriority
                    : j.spec.constraints.priority;
            s.constraints = rt::Constraints::aperiodic(mu);
            s.priority = mu;
          }
          specs.push_back(std::move(s));
        }
        hrt::System::BatchSpawnResult r = sys.spawn_batch(std::move(specs));
        ok = r.ok;
        threads = std::move(r.threads);
        break;
      }
    }
    if (!ok) {
      ++stats_.failed_placements;
      ++j.attempts;  // a real spawn/admission failure, not just "no room"
      continue;      // try the next candidate node
    }
    p.threads = std::move(threads);
    p.ids.reserve(p.threads.size());
    for (const nk::Thread* t : p.threads) p.ids.push_back(t->id);
    if (is_rt_kind(j.spec.kind)) nodes_[node].inflight += p.demand;
    const bool replaced = j.placements > 0;
    j.cur = std::move(p);
    j.state = is_rt_kind(j.spec.kind) ? JobState::kPlacing : JobState::kRunning;
    ++j.placements;
    ++stats_.placements;
    if (replaced) {
      ++stats_.replacements;
      emit(node, telemetry::EventKind::kReplace,
           static_cast<std::uint32_t>(j.id), node);
    }
    return true;
  }
  return false;
}

bool ClusterController::move_job(Job& j, std::uint32_t exclude) {
  // Make-before-break: spawn the replacement first; only once it exists is
  // the original evicted.  The old placement keeps serving while the new
  // one admits, so the job never has an availability gap.
  Placement old = std::move(j.cur);
  j.cur = Placement{};
  const JobState old_state = j.state;
  if (!place_job(j, exclude)) {
    j.cur = std::move(old);
    j.state = old_state;
    return false;
  }
  j.seamless = true;
  old.evict->store(true, std::memory_order_relaxed);
  Node& n = nodes_[old.node];
  if (is_rt_kind(j.spec.kind) &&
      (n.state == NodeState::kUp || n.state == NodeState::kDraining)) {
    n.evictions.push_back(
        Node::EvictionRecord{old.threads, old.ids, old.demand});
  }
  return true;
}

bool ClusterController::try_shed_for(const Job& j) {
  const double demand = job_demand(j);
  const std::uint32_t jc = tenants_[j.tenant].criticality;
  // If sheds already in flight will cover the demand somewhere, wait for
  // them instead of shedding more.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (node_placeable(i) &&
        node_headroom(i) + nodes_[i].shed_credit >= demand) {
      return true;
    }
  }
  // Find a node where evicting strictly-less-critical jobs frees enough.
  for (std::uint32_t i : candidate_nodes(kInvalidNode)) {
    double have = node_headroom(i) + nodes_[i].shed_credit;
    std::vector<Job*> victims;
    for (Job& v : jobs_) {
      if (v.cur.node != i || !is_rt_kind(v.spec.kind) ||
          (v.state != JobState::kRunning && v.state != JobState::kPlacing)) {
        continue;
      }
      if (tenants_[v.tenant].criticality > jc) victims.push_back(&v);
    }
    double total = have;
    for (const Job* v : victims) total += v->cur.demand;
    if (total < demand) continue;
    // Least-critical victims first, newest first within a tenant rank.
    std::stable_sort(victims.begin(), victims.end(),
                     [this](const Job* a, const Job* b) {
                       const std::uint32_t ca = tenants_[a->tenant].criticality;
                       const std::uint32_t cb = tenants_[b->tenant].criticality;
                       if (ca != cb) return ca > cb;
                       return a->id > b->id;
                     });
    for (Job* v : victims) {
      if (have >= demand) break;
      have += v->cur.demand;
      ++stats_.sheds;
      emit(i, telemetry::EventKind::kClusterShed,
           static_cast<std::uint32_t>(v->id), tenants_[v->tenant].criticality);
      teardown_placement(*v, JobState::kShed);
    }
    return true;
  }
  return false;
}

void ClusterController::teardown_placement(Job& j, JobState next_state) {
  if (j.cur.node != kInvalidNode) {
    j.cur.evict->store(true, std::memory_order_relaxed);
    Node& n = nodes_[j.cur.node];
    if (is_rt_kind(j.spec.kind)) {
      if (j.state == JobState::kPlacing) {
        n.inflight = std::max(0.0, n.inflight - j.cur.demand);
      }
      if (n.state == NodeState::kUp || n.state == NodeState::kDraining) {
        n.evictions.push_back(
            Node::EvictionRecord{j.cur.threads, j.cur.ids, j.cur.demand});
      }
    }
  }
  j.cur = Placement{};
  j.seamless = false;
  j.state = next_state;
}

void ClusterController::poll_placement(const Job& j, std::uint32_t* alive,
                                       std::uint32_t* admitted) const {
  *alive = 0;
  *admitted = 0;
  for (std::size_t k = 0; k < j.cur.threads.size(); ++k) {
    const nk::Thread* t = j.cur.threads[k];
    if (!thread_live(t, j.cur.ids[k])) continue;
    ++*alive;
    if (j.spec.kind == JobKind::kBestEffort || t->is_realtime()) ++*admitted;
  }
}

double ClusterController::fair_share(std::size_t tenant) const {
  double weights = 0.0;
  for (const TenantSpec& t : tenants_) weights += std::max(0.0, t.weight);
  if (weights <= 0.0) return 0.0;
  double cap = 0.0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (node_placeable(i)) cap += node_capacity(i);
  }
  return std::max(0.0, tenants_[tenant].weight) / weights * cap;
}

double ClusterController::tenant_placed_util(std::size_t tenant) const {
  double util = 0.0;
  for (const Job& j : jobs_) {
    if (j.tenant == tenant && j.cur.node != kInvalidNode &&
        (j.state == JobState::kRunning || j.state == JobState::kPlacing)) {
      util += j.cur.demand;
    }
  }
  return util;
}

void ClusterController::emit(std::uint32_t node, telemetry::EventKind kind,
                             std::uint32_t tid, std::int64_t arg) {
  telemetry_->recorder().record(node, kind, now_, tid, arg);
}

// --- introspection ---------------------------------------------------------

ClusterController::JobInfo ClusterController::info_of(const Job& j) const {
  JobInfo info;
  info.id = j.id;
  info.tenant = tenants_[j.tenant].name;
  info.name = j.spec.name;
  info.kind = j.spec.kind;
  info.state = j.state;
  info.node = j.cur.node;
  info.placements = j.placements;
  info.last_replace_latency = j.last_replace_latency;
  poll_placement(j, &info.threads_alive, &info.threads_admitted);
  for (std::size_t k = 0; k < j.cur.threads.size(); ++k) {
    const nk::Thread* t = j.cur.threads[k];
    if (!thread_live(t, j.cur.ids[k])) continue;
    info.misses += t->rt.misses;
    info.arrivals += t->rt.arrivals;
  }
  return info;
}

ClusterController::JobInfo ClusterController::job(JobId id) const {
  for (const Job& j : jobs_) {
    if (j.id == id) return info_of(j);
  }
  throw std::out_of_range("ClusterController::job: unknown job id " +
                          std::to_string(id));
}

std::vector<const nk::Thread*> ClusterController::job_threads(JobId id) const {
  std::vector<const nk::Thread*> out;
  for (const Job& j : jobs_) {
    if (j.id != id) continue;
    for (std::size_t k = 0; k < j.cur.threads.size(); ++k) {
      if (thread_live(j.cur.threads[k], j.cur.ids[k])) {
        out.push_back(j.cur.threads[k]);
      }
    }
  }
  return out;
}

std::vector<ClusterController::JobInfo> ClusterController::jobs() const {
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const Job& j : jobs_) out.push_back(info_of(j));
  return out;
}

std::vector<ClusterController::TenantInfo> ClusterController::tenants() const {
  std::vector<TenantInfo> out;
  out.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    TenantInfo t;
    t.spec = tenants_[i];
    t.placed_util = tenant_placed_util(i);
    t.fair_share = fair_share(i);
    t.delivered_ns = tenant_delivered_[i];
    t.expected_ns = tenant_expected_[i];
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace hrt::cluster
