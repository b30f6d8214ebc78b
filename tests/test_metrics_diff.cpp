// hrt-metrics-diff (telemetry/metrics_diff.hpp): parsing real
// write_metrics_json output into flat keys, diffing two snapshots
// (deltas, appeared/vanished rows, ordering), and the formatter.
#include <gtest/gtest.h>

#include <sstream>

#include "rt/system.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics_diff.hpp"

namespace hrt::telemetry {
namespace {

System::Options telemetered(std::uint32_t cpus = 2) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;
  o.telemetry.enabled = true;
  return o;
}

std::unique_ptr<nk::FnBehavior> rt_worker(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

std::string snapshot_json(System& sys) {
  std::ostringstream os;
  write_metrics_json(os, sys.telemetry(), sys.engine().now());
  return os.str();
}

TEST(MetricsDiff, ParsesRealSnapshotIntoFlatKeys) {
  System sys(telemetered());
  sys.boot();
  sys.spawn("web", rt_worker(rt::Constraints::periodic(
                       sim::millis(1), sim::millis(1), sim::micros(200))), 1);
  sys.run_for(sim::millis(20));

  const MetricsSnapshot snap = parse_metrics_snapshot(snapshot_json(sys));
  ASSERT_TRUE(snap.ok) << snap.error;
  EXPECT_EQ(snap.names.at("schema"), "hrt-metrics-v1");
  EXPECT_GT(snap.values.at("now_ns"), 0.0);
  // Per-CPU counters flattened under cpu.<n>.*; thread histograms under
  // thread.<name>.*.
  EXPECT_GT(snap.values.at("cpu.1.passes"), 0.0);
  EXPECT_GT(snap.values.at("thread.web.completions"), 0.0);
  EXPECT_EQ(snap.values.count("thread.web.slack_ns.p99"), 1u);
  EXPECT_GT(snap.values.at("recorder.written"), 0.0);
}

TEST(MetricsDiff, DiffReportsDeltasAndNewRows) {
  System sys(telemetered());
  sys.boot();
  sys.spawn("web", rt_worker(rt::Constraints::periodic(
                       sim::millis(1), sim::millis(1), sim::micros(200))), 1);
  sys.run_for(sim::millis(10));
  const MetricsSnapshot before = parse_metrics_snapshot(snapshot_json(sys));
  // More time passes and a second thread appears between the snapshots.
  sys.spawn("db", rt_worker(rt::Constraints::periodic(
                      sim::millis(1), sim::millis(2), sim::micros(100))), 0);
  sys.run_for(sim::millis(10));
  const MetricsSnapshot after = parse_metrics_snapshot(snapshot_json(sys));
  ASSERT_TRUE(before.ok && after.ok);

  const auto rows = diff_metrics(before, after);
  ASSERT_FALSE(rows.empty());
  // Appeared rows (the new thread) sort before plain deltas.
  bool saw_new_thread = false;
  bool saw_completions_delta = false;
  std::size_t last_new = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].only_after || rows[i].only_before) {
      EXPECT_FALSE(saw_completions_delta)
          << "appear/vanish rows must sort first";
      last_new = i;
    }
    if (rows[i].only_after && rows[i].key.rfind("thread.db.", 0) == 0) {
      saw_new_thread = true;
    }
    if (rows[i].key == "thread.web.completions") {
      saw_completions_delta = true;
      EXPECT_GT(rows[i].delta, 0.0);
      EXPECT_EQ(rows[i].after - rows[i].before, rows[i].delta);
    }
  }
  EXPECT_TRUE(saw_new_thread);
  EXPECT_TRUE(saw_completions_delta);
  (void)last_new;

  // Identical snapshots diff to nothing.
  EXPECT_TRUE(diff_metrics(after, after).empty());
  EXPECT_NE(format_metrics_diff({}).find("(no differences)"),
            std::string::npos);
}

TEST(MetricsDiff, HandWrittenCornerCases) {
  const char* a = R"({"schema": "hrt-metrics-v1", "now_ns": 10,
    "cpus": [{"cpu": 3, "passes": 100}],
    "threads": [{"tid": 7, "name": "w", "misses": 2}]})";
  const char* b = R"({"schema": "hrt-metrics-v1", "now_ns": 20,
    "cpus": [{"cpu": 3, "passes": 150}],
    "threads": []})";
  const MetricsSnapshot sa = parse_metrics_snapshot(a);
  const MetricsSnapshot sb = parse_metrics_snapshot(b);
  ASSERT_TRUE(sa.ok) << sa.error;
  ASSERT_TRUE(sb.ok) << sb.error;
  // Identity keys: the cpu id names the row; the tid is dropped (ids shift
  // across runs).
  EXPECT_EQ(sa.values.at("cpu.3.passes"), 100.0);
  EXPECT_EQ(sa.values.count("cpu.3.cpu"), 0u);
  EXPECT_EQ(sa.values.count("thread.w.tid"), 0u);
  EXPECT_EQ(sa.values.at("thread.w.misses"), 2.0);

  const auto rows = diff_metrics(sa, sb);
  ASSERT_EQ(rows.size(), 3u);
  // Vanished thread row first, then deltas by |delta| descending.
  EXPECT_TRUE(rows[0].only_before);
  EXPECT_EQ(rows[0].key, "thread.w.misses");
  EXPECT_EQ(rows[1].key, "cpu.3.passes");
  EXPECT_EQ(rows[1].delta, 50.0);
  EXPECT_EQ(rows[2].key, "now_ns");

  const std::string text = format_metrics_diff(rows, 2);
  EXPECT_NE(text.find("(gone, was 2)"), std::string::npos);
  EXPECT_NE(text.find("100 -> 150  (+50)"), std::string::npos);
  EXPECT_NE(text.find("1 more rows truncated"), std::string::npos);
}

TEST(MetricsDiff, RejectsMalformedAndWrongSchema) {
  EXPECT_FALSE(parse_metrics_snapshot("{\"schema\": \"other\"}").ok);
  EXPECT_FALSE(parse_metrics_snapshot("not json").ok);
  EXPECT_FALSE(parse_metrics_snapshot("{\"schema\": ").ok);
  // nan/inf from empty histograms parse as 0 instead of failing.
  const MetricsSnapshot s = parse_metrics_snapshot(
      R"({"schema": "hrt-metrics-v1", "x": nan, "y": -inf})");
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_EQ(s.values.at("x"), 0.0);
}

}  // namespace
}  // namespace hrt::telemetry
