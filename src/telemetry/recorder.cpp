#include "telemetry/recorder.hpp"

#include <algorithm>
#include <chrono>

namespace hrt::telemetry {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kPass:
      return "pass";
    case EventKind::kSwitch:
      return "switch";
    case EventKind::kKick:
      return "kick";
    case EventKind::kTimerArm:
      return "timer-arm";
    case EventKind::kAdmitOk:
      return "admit-ok";
    case EventKind::kAdmitReject:
      return "admit-reject";
    case EventKind::kDeadlineMiss:
      return "deadline-miss";
    case EventKind::kMigrateRequest:
      return "migrate-request";
    case EventKind::kMigrateOut:
      return "migrate-out";
    case EventKind::kMigrateIn:
      return "migrate-in";
    case EventKind::kAperiodicMigrate:
      return "aperiodic-migrate";
    case EventKind::kSplitPlan:
      return "split-plan";
    case EventKind::kStormEnter:
      return "storm-enter";
    case EventKind::kStormExit:
      return "storm-exit";
    case EventKind::kDrain:
      return "drain";
    case EventKind::kShed:
      return "shed";
    case EventKind::kRestore:
      return "restore";
    case EventKind::kBarrierArrive:
      return "barrier-arrive";
    case EventKind::kBarrierRelease:
      return "barrier-release";
    case EventKind::kNodeUp:
      return "node-up";
    case EventKind::kNodeDown:
      return "node-down";
    case EventKind::kNodeDrain:
      return "node-drain";
    case EventKind::kReplace:
      return "replace";
    case EventKind::kPreempt:
      return "preempt";
    case EventKind::kClusterShed:
      return "cluster-shed";
    case EventKind::kSloAlert:
      return "slo-alert";
    case EventKind::kCustom:
      return "custom";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::uint32_t num_cpus, RecorderConfig cfg)
    : cfg_(cfg), counts_(num_cpus), sample_countdown_(cfg.cost_sample_every) {
  const std::size_t cap = SpscRing::round_capacity(cfg_.ring_capacity);
  slab_ = SpscRing::zeroed_slots(num_cpus * cap);
  rings_.reserve(num_cpus);
  for (std::uint32_t c = 0; c < num_cpus; ++c) {
    rings_.push_back(std::make_unique<SpscRing>(slab_.get() + c * cap, cap));
  }
}

void FlightRecorder::record(std::uint32_t cpu, EventKind kind, sim::Nanos time,
                            std::uint32_t tid, std::int64_t arg) noexcept {
  if (cpu >= rings_.size()) return;
  Record r;
  r.time = time;
  r.arg = arg;
  r.tid = tid;
  r.cpu = static_cast<std::uint16_t>(cpu);
  r.kind = kind;
  ++counts_[cpu][static_cast<std::size_t>(kind)];
  if (cfg_.cost_sample_every != 0 && --sample_countdown_ == 0) {
    sample_countdown_ = cfg_.cost_sample_every;
    const auto t0 = std::chrono::steady_clock::now();
    rings_[cpu]->push(r);
    const auto t1 = std::chrono::steady_clock::now();
    sampled_cost_ns_.add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  } else {
    rings_[cpu]->push(r);
  }
}

std::vector<Record> FlightRecorder::snapshot_all() const {
  std::vector<Record> out;
  for (const auto& ring : rings_) {
    std::vector<Record> one = ring->snapshot();
    out.insert(out.end(), one.begin(), one.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.cpu < b.cpu;
                   });
  return out;
}

std::uint64_t FlightRecorder::written() const {
  std::uint64_t n = 0;
  for (const auto& ring : rings_) n += ring->written();
  return n;
}

std::uint64_t FlightRecorder::dropped() const {
  std::uint64_t n = 0;
  for (const auto& ring : rings_) n += ring->dropped();
  return n;
}

std::uint64_t FlightRecorder::kind_count(EventKind k) const {
  std::uint64_t n = 0;
  for (const auto& per_kind : counts_) {
    n += per_kind[static_cast<std::size_t>(k)];
  }
  return n;
}

std::uint64_t FlightRecorder::retained_kind_count(std::uint32_t cpu,
                                                  EventKind k) const {
  std::uint64_t n = 0;
  for (const Record& r : snapshot(cpu)) {
    if (r.kind == k) ++n;
  }
  return n;
}

double FlightRecorder::measure_record_cost_ns(std::size_t iters) {
  if (iters == 0) iters = 1;
  double best = -1.0;
  for (int rep = 0; rep < 3; ++rep) {
    // Fresh recorder per pass: one CPU, sampling off, a ring small enough to
    // stay cache-resident (wraparound included — that is the steady state).
    FlightRecorder scratch(1, RecorderConfig{4096, 0});
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      scratch.record(0, EventKind::kPass, static_cast<sim::Nanos>(i),
                     static_cast<std::uint32_t>(i & 0xFFFF),
                     static_cast<std::int64_t>(i));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    const double per = ns / static_cast<double>(iters);
    if (best < 0 || per < best) best = per;
  }
  return best;
}

}  // namespace hrt::telemetry
