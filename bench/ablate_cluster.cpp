// Cluster failover ablation (src/cluster/, docs/CLUSTER.md).
//
// One scenario, two cells differing only in Options::failover: a small
// cluster carries a mixed tenant population (critical RT gangs + a
// best-effort scrubber), then the node hosting the largest RT job crashes
// mid-run.  The failover cell must detect the crash within one control
// period, re-place every affected admitted group onto survivors via the
// node tier's batched spawn paths, and deliver zero deadline misses on the
// re-placed groups from re-admission onward.  The baseline cell keeps the
// lost jobs lost, so its RT availability (delivered / expected job-time)
// decays for the rest of the run — the gap is the value of the cluster
// tier, and bench/run_perf.sh gates on it.
//
// Output: a human-readable table plus a JSON record (--json=PATH, default
// BENCH_cluster.json); see docs/PERFORMANCE.md for the schema.
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/controller.hpp"
#include "common.hpp"

namespace {

using namespace hrt;

cluster::JobSpec gang(const std::string& tenant, const std::string& name,
                      std::uint32_t threads, sim::Nanos slice) {
  cluster::JobSpec s;
  s.tenant = tenant;
  s.name = name;
  s.kind = cluster::JobKind::kGang;
  s.threads = threads;
  s.constraints =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  s.work_chunk = sim::micros(200);
  return s;
}

struct JobRow {
  std::string name;
  std::string state;
  std::uint32_t node = cluster::kInvalidNode;
  std::uint64_t misses = 0;
  std::uint32_t placements = 0;
};

struct Cell {
  bool failover = false;
  // results
  double availability = 0.0;
  std::uint64_t post_failover_misses = 0;  // RT jobs, current placements
  std::uint64_t lost_jobs = 0;
  std::uint64_t replaced_off_victim = 0;
  std::uint64_t affected_jobs = 0;  // RT jobs on the victim at crash time
  std::uint64_t failovers = 0;
  std::uint64_t replacements = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t backfills = 0;
  double detect_mean_us = 0.0, detect_max_us = 0.0;
  double replace_mean_us = 0.0, replace_max_us = 0.0;
  std::uint64_t audit_violations = 0;
  double control_period_us = 0.0;
  std::vector<JobRow> jobs;
};

Cell run_cell(bool failover, std::uint64_t seed, std::uint32_t nodes,
              sim::Nanos horizon) {
  Cell c;
  c.failover = failover;

  cluster::ClusterController::Options o;
  o.nodes = nodes;
  o.node_options.spec = hw::MachineSpec::phi_small(2);
  o.node_options.seed = seed;
  o.node_options.spec.smi.enabled = false;
  o.node_options.audit.enabled = true;
  o.audit.enabled = true;
  o.telemetry.enabled = true;
  o.failover = failover;
  c.control_period_us =
      static_cast<double>(cluster::ClusterController::kControlPeriod) / 1000.0;
  cluster::ClusterController ctl(std::move(o));

  ctl.add_tenant({"ctrl", 2.0, 10});
  ctl.add_tenant({"analytics", 1.0, 200});
  const cluster::JobId web =
      ctl.submit(gang("ctrl", "web", 2, sim::micros(300)));  // demand 0.6
  ctl.submit(gang("ctrl", "db", 1, sim::micros(200)));       // demand 0.2
  {
    cluster::JobSpec be;
    be.tenant = "analytics";
    be.name = "scrub";
    be.kind = cluster::JobKind::kBestEffort;
    be.threads = 2;
    be.work_chunk = sim::micros(200);
    ctl.submit(std::move(be));
  }
  ctl.run_for(sim::millis(10));  // warmup: everything places and admits

  // Crash the node hosting the largest RT job one millisecond from now.
  const std::uint32_t victim = ctl.job(web).node;
  for (const auto& j : ctl.jobs()) {
    if (j.kind != cluster::JobKind::kBestEffort && j.node == victim) {
      ++c.affected_jobs;
    }
  }
  // Mid-control-period crash: detection latency is then a real fraction of
  // the heartbeat, not the degenerate on-boundary zero.
  ctl.fail_node(victim, ctl.now() + sim::millis(1) +
                            cluster::ClusterController::kControlPeriod / 2);
  ctl.run_for(horizon);

  c.availability = ctl.availability();
  for (const auto& j : ctl.jobs()) {
    c.jobs.push_back({j.name, cluster::job_state_name(j.state), j.node,
                      j.misses, j.placements});
    if (j.kind == cluster::JobKind::kBestEffort) continue;
    c.post_failover_misses += j.misses;
    if (j.state == cluster::JobState::kLost) ++c.lost_jobs;
    if (j.state == cluster::JobState::kRunning && j.node != victim &&
        j.placements > 1) {
      ++c.replaced_off_victim;
    }
  }
  const auto& st = ctl.stats();
  c.failovers = st.failovers;
  c.replacements = st.replacements;
  c.preemptions = st.preemptions;
  c.backfills = st.backfills;
  c.detect_mean_us = st.detect_ns.mean() / 1000.0;
  c.detect_max_us = st.detect_ns.max() / 1000.0;
  c.replace_mean_us = st.replace_ns.mean() / 1000.0;
  c.replace_max_us = st.replace_ns.max() / 1000.0;
  // Every node's scheduler audits plus the controller's own auditor.
  c.audit_violations = ctl.auditor().total_violations();
  for (std::uint32_t n = 0; n < ctl.num_nodes(); ++n) {
    c.audit_violations += ctl.node(n).auditor().total_violations();
  }
  return c;
}

std::string cell_json(const Cell& c) {
  bench::JsonObject j;
  j.field("failover", std::string(c.failover ? "on" : "off"));
  j.field("availability", c.availability);
  j.field("post_failover_misses", c.post_failover_misses);
  j.field("lost_jobs", c.lost_jobs);
  j.field("affected_jobs", c.affected_jobs);
  j.field("replaced_off_victim", c.replaced_off_victim);
  j.field("failovers", c.failovers);
  j.field("replacements", c.replacements);
  j.field("preemptions", c.preemptions);
  j.field("backfills", c.backfills);
  j.field("detect_mean_us", c.detect_mean_us);
  j.field("detect_max_us", c.detect_max_us);
  j.field("replace_mean_us", c.replace_mean_us);
  j.field("replace_max_us", c.replace_max_us);
  j.field("audit_violations", c.audit_violations);
  std::string arr = "[";
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    bench::JsonObject row;
    row.field("name", c.jobs[i].name);
    row.field("state", c.jobs[i].state);
    row.field("node", static_cast<std::uint64_t>(c.jobs[i].node));
    row.field("misses", c.jobs[i].misses);
    row.field("placements", static_cast<std::uint64_t>(c.jobs[i].placements));
    if (i > 0) arr += ", ";
    arr += row.str();
  }
  arr += "]";
  j.raw("jobs", arr);
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  if (args.json.empty()) args.json = "BENCH_cluster.json";

  bench::header(
      "ablate_cluster: node-crash failover vs no-failover baseline",
      "the cluster tier detects a crashed node within one control period, "
      "re-places every affected admitted group onto survivors with zero "
      "post-failover deadline misses, and keeps RT availability strictly "
      "above the baseline that lets the lost jobs stay lost");

  const std::uint32_t nodes = args.full ? 4 : 3;
  const sim::Nanos horizon = args.full ? sim::millis(200) : sim::millis(50);
  bench::Stopwatch wall;
  Cell cells[2];
  bench::parallel_for_index(2, args.threads, [&](std::size_t i) {
    cells[i] = run_cell(i == 0, args.seed, nodes, horizon);
  });
  const Cell& on = cells[0];
  const Cell& off = cells[1];

  std::printf("%-10s %14s %12s %10s %12s %12s\n", "cell", "availability",
              "post_misses", "lost", "detect_us", "replace_us");
  for (const Cell* c : {&on, &off}) {
    std::printf("%-10s %14.4f %12llu %10llu %12.1f %12.1f\n",
                c->failover ? "failover" : "baseline", c->availability,
                (unsigned long long)c->post_failover_misses,
                (unsigned long long)c->lost_jobs, c->detect_max_us,
                c->replace_max_us);
  }
  std::printf("\nfailover cell: %llu affected RT jobs on the victim, %llu "
              "re-placed on survivors, %llu preemptions, %llu backfills\n\n",
              (unsigned long long)on.affected_jobs,
              (unsigned long long)on.replaced_off_victim,
              (unsigned long long)on.preemptions,
              (unsigned long long)on.backfills);

  bench::shape_check("crash detected within one control period",
                     on.failovers >= 1 &&
                         on.detect_max_us <= on.control_period_us);
  bench::shape_check("every affected admitted group re-placed on survivors",
                     on.affected_jobs >= 1 &&
                         on.replaced_off_victim == on.affected_jobs &&
                         on.lost_jobs == 0);
  bench::shape_check("zero post-failover deadline misses",
                     on.post_failover_misses == 0);
  bench::shape_check("baseline loses the victim's jobs for good",
                     off.lost_jobs >= 1);
  bench::shape_check("failover availability strictly above baseline",
                     on.availability > off.availability);
  bench::shape_check("zero invariant-audit violations in both cells",
                     on.audit_violations == 0 && off.audit_violations == 0);
  std::printf("total wall %.2fs\n", wall.seconds());

  // ---- JSON record (schema: docs/PERFORMANCE.md) ----
  bench::JsonObject j;
  j.field("benchmark", std::string("ablate_cluster"));
  j.field("mode", std::string(args.full ? "full" : "quick"));
  j.field("seed", static_cast<std::uint64_t>(args.seed));
  j.field("nodes", static_cast<std::uint64_t>(nodes));
  j.field("horizon_ms", static_cast<std::uint64_t>(horizon / 1000000));
  j.field("control_period_us", on.control_period_us);
  // Flat copies of the three shape-checked values, readable without
  // walking the cells.
  j.field("availability_failover", on.availability);
  j.field("availability_baseline", off.availability);
  j.field("post_failover_misses", on.post_failover_misses);
  j.raw("failover_cell", cell_json(on));
  j.raw("baseline_cell", cell_json(off));
  if (!j.write_file(args.json)) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.json.c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.json.c_str());
  return 0;
}
