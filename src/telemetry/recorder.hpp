// Per-CPU flight recorder (docs/OBSERVABILITY.md).
//
// Owns one SpscRing per CPU, all carved out of one zeroed slab (a fresh
// 256-CPU recorder costs page faults only where records land, not 32 MB of
// up-front stores), plus the bookkeeping the export layer needs: a count
// of every record appended, per (CPU, kind), which is the only per-CPU
// event counter the telemetry tier keeps (a drop-oldest ring forgets
// records, the count does not), and a self-measured record cost.  The cost is
// measured two ways — a sampled in-line probe (every Nth record is timed
// with the host steady clock, including the clock overhead) and a batch
// calibration (measure_record_cost_ns) that times a tight loop over the
// real push path and divides, which is the number BENCH_telemetry.json
// reports against the 2%-of-pass-span budget.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/stats.hpp"
#include "telemetry/ring.hpp"

namespace hrt::telemetry {

struct RecorderConfig {
  /// Per-CPU ring capacity in records (rounded up to a power of two).
  std::size_t ring_capacity = 4096;
  /// Time every Nth record with the host steady clock (0 disables the
  /// in-line probe; the batch calibration is always available).
  std::uint32_t cost_sample_every = 64;
};

class FlightRecorder {
 public:
  /// One ring per CPU; num_cpus = 0 (a disabled hub) allocates nothing.
  FlightRecorder(std::uint32_t num_cpus, RecorderConfig cfg);

  void record(std::uint32_t cpu, EventKind kind, sim::Nanos time,
              std::uint32_t tid, std::int64_t arg) noexcept;

  [[nodiscard]] std::uint32_t num_cpus() const {
    return static_cast<std::uint32_t>(rings_.size());
  }
  /// Throws std::out_of_range for a CPU without a ring.
  [[nodiscard]] const SpscRing& ring(std::uint32_t cpu) const {
    return *rings_.at(cpu);
  }
  [[nodiscard]] const RecorderConfig& config() const { return cfg_; }

  /// Retained window of one CPU, oldest first (empty for a CPU without a
  /// ring).
  [[nodiscard]] std::vector<Record> snapshot(std::uint32_t cpu) const {
    if (cpu >= rings_.size()) return {};
    return rings_[cpu]->snapshot();
  }
  /// All CPUs merged, sorted by (time, cpu); within one (time, cpu) pair the
  /// per-ring order (= emission order) is preserved.
  [[nodiscard]] std::vector<Record> snapshot_all() const;

  [[nodiscard]] std::uint64_t written() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Records of kind `k` ever appended on `cpu`, dropped ones included (0
  /// for a CPU without a ring).
  [[nodiscard]] std::uint64_t count(std::uint32_t cpu, EventKind k) const {
    return cpu < counts_.size() ? counts_[cpu][static_cast<std::size_t>(k)]
                                : 0;
  }
  /// count(cpu, k) summed over every CPU.
  [[nodiscard]] std::uint64_t kind_count(EventKind k) const;
  /// Threads moved onto `cpu`: job-boundary hand-offs in plus aperiodic
  /// relocations, whose one record lives on the destination.
  [[nodiscard]] std::uint64_t moved_in(std::uint32_t cpu) const {
    return count(cpu, EventKind::kMigrateIn) +
           count(cpu, EventKind::kAperiodicMigrate);
  }
  /// Count of one kind inside a single CPU's retained window (0 for a CPU
  /// without a ring).
  [[nodiscard]] std::uint64_t retained_kind_count(std::uint32_t cpu,
                                                  EventKind k) const;

  /// Sampled in-line probe results (host ns per record, clock included).
  [[nodiscard]] const sim::RunningStats& sampled_cost_ns() const {
    return sampled_cost_ns_;
  }

  /// Batch calibration: time `iters` pushes through the real record() path
  /// on a scratch recorder and return host ns per record (best of three
  /// passes, so a scheduler hiccup on the host cannot inflate the figure).
  [[nodiscard]] static double measure_record_cost_ns(std::size_t iters);

 private:
  RecorderConfig cfg_;
  SpscRing::Slab slab_;  // every ring's slots, one block
  std::vector<std::unique_ptr<SpscRing>> rings_;
  std::vector<std::array<std::uint64_t, kEventKindCount>> counts_;  // [cpu]
  // Records left until the next timed one (every cost_sample_every-th).
  std::uint32_t sample_countdown_;
  sim::RunningStats sampled_cost_ns_;
};

}  // namespace hrt::telemetry
