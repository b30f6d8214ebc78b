// Cluster tier (src/cluster/, docs/CLUSTER.md): option validation, live
// node sums over the node ledgers, storm-flagged nodes ranked last, tenant
// fairshare, criticality ordering, node failover with zero post-failover
// misses, drains (make-before-break), seeded-fault regressions (mid-drain
// crash, double-failure shed ordering, placement rollback), best-effort
// preemption/backfill, zombie fencing on restore, and replay-oracle
// validation of a full failover trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "audit/replay.hpp"
#include "cluster/controller.hpp"

namespace hrt::cluster {
namespace {

ClusterController::Options clustered(std::uint32_t nodes = 2,
                                     std::uint32_t cpus = 2) {
  ClusterController::Options o;
  o.nodes = nodes;
  o.node_options.spec = hw::MachineSpec::phi_small(cpus);
  o.node_options.spec.smi.enabled = false;
  o.node_options.audit.enabled = true;  // accumulate; FORCE builds throw
  o.audit.enabled = true;
  return o;
}

JobSpec gang(const std::string& tenant, const std::string& name,
             std::uint32_t threads, sim::Nanos slice,
             sim::Nanos period = sim::millis(1)) {
  JobSpec s;
  s.tenant = tenant;
  s.name = name;
  s.kind = JobKind::kGang;
  s.threads = threads;
  s.constraints = rt::Constraints::periodic(period, period, slice);
  s.work_chunk = sim::micros(200);  // fast eviction boundaries for tests
  return s;
}

JobSpec best_effort(const std::string& tenant, const std::string& name,
                    std::uint32_t threads) {
  JobSpec s;
  s.tenant = tenant;
  s.name = name;
  s.kind = JobKind::kBestEffort;
  s.threads = threads;
  s.work_chunk = sim::micros(200);
  return s;
}

std::uint64_t rt_misses_on_current_placements(const ClusterController& ctl) {
  std::uint64_t misses = 0;
  for (const auto& j : ctl.jobs()) {
    if (j.kind != JobKind::kBestEffort) misses += j.misses;
  }
  return misses;
}

// ---------- options ----------

TEST(ClusterConfig, RejectsMalformedOptions) {
  const double bad_slots[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              0.0,
                              -0.25,
                              1e-12};
  for (const double slot : bad_slots) {
    ClusterController::Options o = clustered(1, 2);
    o.best_effort_slot_util = slot;
    EXPECT_THROW(ClusterController ctl(std::move(o)), std::invalid_argument)
        << "best_effort_slot_util " << slot;
  }
  ClusterController::Options o = clustered(1, 2);
  o.max_place_attempts = 0;
  EXPECT_THROW(ClusterController ctl(std::move(o)), std::invalid_argument);
  o = clustered(1, 2);
  o.nodes = 0;
  EXPECT_THROW(ClusterController ctl(std::move(o)), std::invalid_argument);

  o = clustered(1, 2);
  o.best_effort_slot_util = 0.75;
  o.max_place_attempts = 1;
  EXPECT_NO_THROW(ClusterController ctl(std::move(o)));
}

// ---------- node sums ----------

TEST(ClusterNodes, SumsAreReadLiveFromNodeLedgers) {
  ClusterController ctl(clustered(2, 2));
  ctl.submit(gang("acme", "web", 2, sim::micros(300)));
  ctl.submit(gang("acme", "db", 1, sim::micros(200)));
  ctl.run_for(sim::millis(10));

  auto sums = [&](std::uint32_t n) {
    const auto& src = ctl.node(n).placement().ledger();
    rt::fp::Raw committed = 0;
    rt::fp::Raw capacity = 0;
    for (std::uint32_t c = 0; c < src.num_cpus(); ++c) {
      committed += src.committed_raw(c);
      capacity += src.capacity_raw(c);
    }
    return std::make_pair(rt::fp::to_double(committed),
                          rt::fp::to_double(capacity));
  };
  double total = 0.0;
  for (std::uint32_t n = 0; n < ctl.num_nodes(); ++n) {
    EXPECT_EQ(ctl.node_committed(n), sums(n).first) << "node " << n;
    EXPECT_EQ(ctl.node_capacity(n), sums(n).second) << "node " << n;
    total += ctl.node_committed(n);
  }
  // Both jobs admitted somewhere, so the node sums carry real load.
  EXPECT_GT(total, 0.4);

  // Nothing is cached: a capacity a node publishes between ticks shows at
  // once.
  ctl.node(0).placement().ledger().set_capacity(1, 0.5);
  EXPECT_EQ(ctl.node_capacity(0), sums(0).second);
  EXPECT_NEAR(ctl.node_capacity(0), 0.79 + 0.5, 1e-9);
}


TEST(ClusterNodes, FitGateAdmitsTheGangTheNodePlaces) {
  // CPUs 1-3 each hold an admitted 0.39 thread; the ledger's Q32.32
  // rounding leaves each 0.399999999674 of headroom, which the node's
  // placement engine still fits a 0.4 member into (its 1e-9 slack).  The
  // cluster's fit gate asks that engine, so the gang runs instead of
  // waiting for room no CPU will ever report.
  ClusterController ctl(clustered(1, 4));
  hrt::System& node = ctl.node(0);
  for (std::uint32_t c = 1; c <= 3; ++c) {
    node.spawn("hold" + std::to_string(c),
               std::make_unique<nk::FnBehavior>(
                   [](nk::ThreadCtx&, std::uint64_t step) {
                     if (step == 0) {
                       return nk::Action::change_constraints(
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::millis(1),
                                                     sim::micros(390)));
                     }
                     return nk::Action::compute(sim::millis(2));
                   }),
               c);
  }
  ctl.run_for(sim::millis(5));
  const auto& ledger = node.placement().ledger();
  for (std::uint32_t c = 1; c <= 3; ++c) {
    ASSERT_LT(ledger.headroom(c), 0.4) << "cpu " << c;
    ASSERT_TRUE(node.placement().engine().fits(c, 0.4)) << "cpu " << c;
  }
  JobSpec g = gang("acme", "g", 3, sim::micros(400));
  g.constraints = rt::Constraints::periodic(sim::millis(2), sim::millis(1),
                                            sim::micros(400));
  const JobId id = ctl.submit(g);
  ctl.run_for(sim::millis(20));  // 40 control ticks
  EXPECT_EQ(ctl.job(id).state, JobState::kRunning);
  EXPECT_EQ(ctl.job(id).threads_admitted, 3u);
}
// ---------- placement ----------

TEST(ClusterPlacement, StormFlaggedNodesRankLast) {
  // Two idle nodes tie on headroom, so the job lands on node 0 unless a
  // storm flag on one of node 0's CPUs ranks that node last.
  for (const bool flagged : {false, true}) {
    ClusterController ctl(clustered(2, 2));
    if (flagged) ctl.node(0).placement().ledger().set_storm_hit(1, true);
    const JobId id = ctl.submit(gang("acme", "web", 1, sim::micros(300)));
    ctl.run_for(sim::millis(5));
    ASSERT_EQ(ctl.job(id).state, JobState::kRunning) << flagged;
    EXPECT_EQ(ctl.job(id).node, flagged ? 1u : 0u) << flagged;
  }
}

// ---------- tenants: fairshare + criticality ----------

TEST(ClusterTenants, FairShareFollowsWeights) {
  ClusterController ctl(clustered(2, 2));
  ctl.add_tenant({"gold", 3.0, 10});
  ctl.add_tenant({"bronze", 1.0, 100});
  ctl.submit(gang("gold", "g", 1, sim::micros(200)));
  ctl.submit(gang("bronze", "b", 1, sim::micros(200)));
  ctl.run_for(sim::millis(5));

  const auto tenants = ctl.tenants();
  ASSERT_EQ(tenants.size(), 2u);
  ASSERT_GT(tenants[1].fair_share, 0.0);
  EXPECT_NEAR(tenants[0].fair_share / tenants[1].fair_share, 3.0, 1e-9);
  // Both tenants' placed demand is tracked against their share.
  EXPECT_NEAR(tenants[0].placed_util, 0.2, 0.01);
  EXPECT_NEAR(tenants[1].placed_util, 0.2, 0.01);
}

TEST(ClusterTenants, CriticalJobDisplacesLessCriticalWhenFull) {
  ClusterController ctl(clustered(1, 2));  // one node: force contention
  ctl.add_tenant({"crit", 1.0, 10});
  ctl.add_tenant({"bulk", 1.0, 200});
  // Bulk fills the node (2 CPUs x 0.79 capacity = 1.58).
  ctl.submit(gang("bulk", "b0", 2, sim::micros(700)));  // demand 1.4
  ctl.run_for(sim::millis(5));
  ASSERT_EQ(ctl.jobs()[0].state, JobState::kRunning);

  // Critical demand arrives; nothing fits until bulk is shed.
  ctl.submit(gang("crit", "c0", 2, sim::micros(500)));  // demand 1.0
  ctl.run_for(sim::millis(10));

  const auto jobs = ctl.jobs();
  EXPECT_EQ(jobs[1].state, JobState::kRunning) << "critical job must run";
  EXPECT_NE(jobs[0].state, JobState::kRunning) << "bulk job must be shed";
  EXPECT_GE(ctl.stats().sheds, 1u);
  EXPECT_EQ(jobs[1].misses, 0u);
}

TEST(ClusterTenants, EqualCriticalityNeverSheds) {
  ClusterController ctl(clustered(1, 2));
  ctl.add_tenant({"a", 1.0, 50});
  ctl.add_tenant({"b", 1.0, 50});
  ctl.submit(gang("a", "a0", 2, sim::micros(700)));
  ctl.run_for(sim::millis(5));
  ctl.submit(gang("b", "b0", 2, sim::micros(500)));
  ctl.run_for(sim::millis(10));

  // Strictly-less-critical only: an equal-rank tenant cannot displace.
  EXPECT_EQ(ctl.jobs()[0].state, JobState::kRunning);
  EXPECT_EQ(ctl.jobs()[1].state, JobState::kPending);
  EXPECT_EQ(ctl.stats().sheds, 0u);
}

// ---------- failover ----------

TEST(ClusterFailover, ReplacesJobsWithZeroPostFailoverMisses) {
  ClusterController ctl(clustered(3, 2));
  ctl.add_tenant({"acme", 1.0, 10});
  const JobId a = ctl.submit(gang("acme", "web", 2, sim::micros(300)));
  const JobId b = ctl.submit(gang("acme", "db", 1, sim::micros(200)));
  ctl.run_for(sim::millis(10));
  ASSERT_EQ(ctl.job(a).state, JobState::kRunning);
  ASSERT_EQ(ctl.job(b).state, JobState::kRunning);

  const std::uint32_t victim = ctl.job(a).node;
  ctl.fail_node(victim, ctl.now() + sim::millis(1));
  ctl.run_for(sim::millis(30));

  EXPECT_EQ(ctl.node_state(victim), NodeState::kDown);
  EXPECT_GE(ctl.stats().failovers, 1u);
  EXPECT_GE(ctl.stats().replacements, 1u);
  for (const auto& j : ctl.jobs()) {
    EXPECT_EQ(j.state, JobState::kRunning) << j.name;
    EXPECT_NE(j.node, victim) << j.name;
    EXPECT_EQ(j.misses, 0u) << j.name << ": post-failover misses";
  }
  // Detection is bounded by one control period; re-run latency was recorded.
  ASSERT_GT(ctl.stats().detect_ns.count(), 0u);
  EXPECT_LE(ctl.stats().detect_ns.max(),
            static_cast<double>(ClusterController::kControlPeriod));
  EXPECT_GT(ctl.stats().replace_ns.count(), 0u);
  EXPECT_GE(ctl.job(a).last_replace_latency, 0);
}

TEST(ClusterFailover, NoFailoverBaselineLosesAvailability) {
  auto scenario = [](bool failover) {
    ClusterController::Options o = clustered(2, 2);
    o.failover = failover;
    ClusterController ctl(std::move(o));
    const JobId id = ctl.submit(gang("acme", "web", 2, sim::micros(300)));
    ctl.run_for(sim::millis(5));
    ctl.fail_node(ctl.job(id).node);
    ctl.run_for(sim::millis(45));
    return std::make_pair(ctl.availability(), ctl.job(id).state);
  };
  const auto [with, state_with] = scenario(true);
  const auto [without, state_without] = scenario(false);
  EXPECT_EQ(state_with, JobState::kRunning);
  EXPECT_EQ(state_without, JobState::kLost);
  EXPECT_GT(with, without);
  EXPECT_GT(with, 0.8);
  // The lost job keeps accruing expected time: the baseline pays for the
  // whole outage.
  EXPECT_LT(without, 0.25);
}

TEST(ClusterFailover, FailoverTraceReplaysCleanOnSurvivor) {
  ClusterController ctl(clustered(2, 2));
  for (std::uint32_t n = 0; n < ctl.num_nodes(); ++n) {
    ctl.node(n).machine().trace().enable();
  }
  const JobId id = ctl.submit(gang("acme", "web", 2, sim::micros(250)));
  ctl.run_for(sim::millis(10));
  ASSERT_EQ(ctl.job(id).state, JobState::kRunning);
  const std::uint32_t victim = ctl.job(id).node;
  ctl.fail_node(victim);
  ctl.run_for(sim::millis(40));
  ASSERT_EQ(ctl.job(id).state, JobState::kRunning);
  const std::uint32_t survivor = ctl.job(id).node;
  ASSERT_NE(survivor, victim);

  // Replay each surviving CPU hosting a re-placed worker: the failover
  // placement must be an ordinary clean EDF schedule — every dispatch
  // ordered, every arrival served, zero misses.
  System& sys = ctl.node(survivor);
  const audit::ReplayConfig cfg = audit::replay_config_for(sys.machine().spec());
  const auto threads = ctl.job_threads(id);
  ASSERT_EQ(threads.size(), 2u);
  for (const nk::Thread* t : threads) {
    const std::vector<audit::ReplayTask> tasks = {
        {t->id, t->constraints, t->rt.gamma}};
    audit::ReplayResult r = audit::replay_edf(
        sys.machine().trace(), t->cpu, tasks, cfg, sys.engine().now());
    for (const auto& d : r.divergences) {
      ADD_FAILURE() << "cpu " << t->cpu << " t=" << d.time << "ns: "
                    << d.detail;
    }
    ASSERT_NE(r.find(t->id), nullptr);
    EXPECT_GT(r.find(t->id)->arrivals, 10u);
    audit::verify_stats(r, t->id, t->rt.arrivals, t->rt.completions,
                        t->rt.misses, 2);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(t->rt.misses, 0u);
  }
}

TEST(ClusterFailover, DoubleFailureShedsLeastCriticalFirst) {
  ClusterController ctl(clustered(3, 2));
  ctl.add_tenant({"crit", 1.0, 10});
  ctl.add_tenant({"bulk", 1.0, 200});
  const JobId c0 = ctl.submit(gang("crit", "c0", 2, sim::micros(500)));
  ctl.submit(gang("bulk", "b0", 2, sim::micros(500)));
  ctl.submit(gang("bulk", "b1", 2, sim::micros(400)));
  ctl.run_for(sim::millis(10));
  for (const auto& j : ctl.jobs()) {
    ASSERT_EQ(j.state, JobState::kRunning) << j.name;
  }

  // Two of three nodes die: 1.58 of capacity remains for 2.8 of demand.
  // Criticality decides who keeps running.
  ctl.fail_node(0);
  ctl.run_for(sim::millis(15));
  ctl.fail_node(1);
  ctl.run_for(sim::millis(30));

  EXPECT_EQ(ctl.job(c0).state, JobState::kRunning)
      << "most critical job survives a double failure";
  EXPECT_EQ(ctl.job(c0).misses, 0u);
  // At least one bulk job cannot fit the last node alongside crit.
  std::uint64_t bulk_not_running = 0;
  for (const auto& j : ctl.jobs()) {
    if (j.tenant == "bulk" && j.state != JobState::kRunning) {
      ++bulk_not_running;
      EXPECT_TRUE(j.state == JobState::kShed || j.state == JobState::kPending)
          << job_state_name(j.state);
    }
  }
  EXPECT_GE(bulk_not_running, 1u);
}

TEST(ClusterFailover, UnplaceableJobRollsBackCleanly) {
  ClusterController::Options o = clustered(2, 2);
  o.max_place_attempts = 3;
  ClusterController ctl(std::move(o));
  // A pipeline needing u = 2.0 can never fit a 2-CPU node (max split
  // 2 x 0.79): every spawn attempt must fail atomically.
  JobSpec s;
  s.tenant = "acme";
  s.name = "huge";
  s.kind = JobKind::kPipeline;
  s.constraints =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::millis(2));
  ctl.submit(std::move(s));
  ctl.run_for(sim::millis(10));

  const auto j = ctl.jobs()[0];
  EXPECT_EQ(j.state, JobState::kFailed);
  EXPECT_EQ(j.threads_alive, 0u) << "no orphan threads after rollback";
  EXPECT_GE(ctl.stats().failed_placements, 3u);
  // No partial admission leaked into any ledger.
  for (std::uint32_t n = 0; n < ctl.num_nodes(); ++n) {
    EXPECT_NEAR(ctl.node_committed(n), 0.0, 1e-9) << "node " << n;
  }
}

// ---------- drain ----------

TEST(ClusterDrain, MovesJobsMakeBeforeBreak) {
  ClusterController ctl(clustered(2, 2));
  const JobId id = ctl.submit(gang("acme", "web", 1, sim::micros(300)));
  ctl.run_for(sim::millis(10));
  const std::uint32_t src = ctl.job(id).node;
  // Any availability deficit so far is initial admission latency; the drain
  // itself must not add to it.
  const sim::Nanos deficit =
      ctl.stats().rt_expected_ns - ctl.stats().rt_delivered_ns;
  ctl.drain_node(src);
  ctl.run_for(sim::millis(20));

  EXPECT_EQ(ctl.node_state(src), NodeState::kDrained);
  EXPECT_EQ(ctl.job(id).state, JobState::kRunning);
  EXPECT_NE(ctl.job(id).node, src);
  EXPECT_GE(ctl.stats().replacements, 1u);
  EXPECT_EQ(ctl.job(id).misses, 0u);
  // Make-before-break: the job never stopped serving during the move.
  EXPECT_EQ(ctl.stats().rt_expected_ns - ctl.stats().rt_delivered_ns, deficit);
  // A drained node offers no capacity cluster-wide.
  EXPECT_NEAR(ctl.node_capacity(src), 0.0, 1e-9);
}

TEST(ClusterDrain, MidDrainCrashStillRecovers) {
  ClusterController ctl(clustered(3, 2));
  const JobId a = ctl.submit(gang("acme", "web", 2, sim::micros(400)));
  const JobId b = ctl.submit(gang("acme", "db", 1, sim::micros(300)));
  ctl.run_for(sim::millis(10));
  const std::uint32_t src = ctl.job(a).node;
  ctl.drain_node(src);
  // Crash before the drain can finish moving everything off.
  ctl.fail_node(src, ctl.now() + ClusterController::kControlPeriod / 2);
  ctl.run_for(sim::millis(40));

  EXPECT_EQ(ctl.node_state(src), NodeState::kDown);
  EXPECT_EQ(ctl.job(a).state, JobState::kRunning);
  EXPECT_EQ(ctl.job(b).state, JobState::kRunning);
  EXPECT_NE(ctl.job(a).node, src);
  EXPECT_NE(ctl.job(b).node, src);
  EXPECT_EQ(rt_misses_on_current_placements(ctl), 0u);
}

// ---------- restore / zombie fencing ----------

TEST(ClusterRestore, FencedZombiesExitAndCapacityReturns) {
  ClusterController ctl(clustered(2, 2));
  const JobId id = ctl.submit(gang("acme", "web", 2, sim::micros(300)));
  ctl.run_for(sim::millis(10));
  const std::uint32_t victim = ctl.job(id).node;
  ctl.fail_node(victim);
  ctl.run_for(sim::millis(20));
  ASSERT_EQ(ctl.job(id).state, JobState::kRunning);
  ASSERT_NE(ctl.job(id).node, victim);

  ctl.restore_node(victim);
  ctl.run_for(sim::millis(20));

  // The restored node caught up, its fenced zombies exited (releasing their
  // stale reservations), and its capacity is back on the cluster books.
  EXPECT_EQ(ctl.node_state(victim), NodeState::kUp);
  EXPECT_NEAR(ctl.node_committed(victim), 0.0, 1e-9);
  EXPECT_GT(ctl.node_capacity(victim), 1.0);
  // Exactly one live placement: the job was never double-run after restore.
  EXPECT_EQ(ctl.job(id).state, JobState::kRunning);
  EXPECT_NE(ctl.job(id).node, victim);
  EXPECT_EQ(ctl.job(id).threads_alive, 2u);
}

// ---------- best-effort preemption + backfill ----------

TEST(ClusterBestEffort, RtDemandPreemptsAndBackfills) {
  ClusterController::Options o = clustered(2, 2);
  o.best_effort_slot_util = 0.75;  // 2 slots per idle node
  ClusterController ctl(std::move(o));
  ctl.add_tenant({"rt", 1.0, 10});
  ctl.add_tenant({"batchy", 1.0, 200});
  const JobId be = ctl.submit(best_effort("batchy", "scrub", 2));
  ctl.run_for(sim::millis(5));
  ASSERT_EQ(ctl.job(be).state, JobState::kRunning);
  const std::uint32_t be_node = ctl.job(be).node;

  // RT demand lands on the BE node and eats its slack.
  const JobId rt_id = ctl.submit(gang("rt", "ctrl", 2, sim::micros(600)));
  ctl.run_for(sim::millis(20));

  EXPECT_EQ(ctl.job(rt_id).state, JobState::kRunning);
  EXPECT_GE(ctl.stats().preemptions, 1u);
  // The preempted BE job backfilled onto the other node's slots.
  EXPECT_EQ(ctl.job(be).state, JobState::kRunning);
  EXPECT_NE(ctl.job(be).node, be_node);
  EXPECT_GE(ctl.stats().backfills, 1u);
  EXPECT_EQ(ctl.job(rt_id).misses, 0u);
}

// ---------- telemetry events ----------

TEST(ClusterTelemetry, LifecycleEventsReachFlightRecorder) {
  ClusterController::Options o = clustered(2, 2);
  o.telemetry.enabled = true;
  ClusterController ctl(std::move(o));
  const JobId id = ctl.submit(gang("acme", "web", 1, sim::micros(300)));
  ctl.run_for(sim::millis(5));
  ctl.fail_node(ctl.job(id).node);
  ctl.run_for(sim::millis(20));
  ASSERT_EQ(ctl.job(id).state, JobState::kRunning);

  const auto& rec = ctl.telemetry().recorder();
  EXPECT_GE(rec.kind_count(telemetry::EventKind::kNodeUp), 2u);
  EXPECT_GE(rec.kind_count(telemetry::EventKind::kNodeDown), 1u);
  EXPECT_GE(rec.kind_count(telemetry::EventKind::kReplace), 1u);
}

// ---------- name helpers ----------

TEST(ClusterNames, EnumNamesAreStable) {
  EXPECT_STREQ(job_kind_name(JobKind::kPipeline), "pipeline");
  EXPECT_STREQ(job_state_name(JobState::kShed), "shed");
  EXPECT_STREQ(node_state_name(NodeState::kDraining), "draining");
}

}  // namespace
}  // namespace hrt::cluster
