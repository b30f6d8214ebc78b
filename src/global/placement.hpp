// Utilization-aware CPU placement (docs/GLOBAL.md).
//
// The placement engine sits between the public spawn API and the per-CPU
// local schedulers.  It never admits anything itself: it only *chooses*
// CPUs, using the utilization ledger as its view of commitments, and the
// chosen CPU's own rt::Admission test remains the final authority.  That
// keeps the safety argument local — a bad placement decision can only cost
// throughput, never a deadline.
//
// Three layers:
//   * PlacementEngine — online placement.  It owns one ranking of the CPUs
//     and one fit test, and every live decision (single spawns, batches,
//     group co-placement, the rebalancer's and the storm drain's
//     destinations) takes the first CPU in that ranking passing its filter.
//   * pack_decreasing / pack_semi_partitioned — offline set packing used by
//     the ablation bench and by spawn-time overflow splitting, under the
//     first/best/worst-fit and topology candidate orders (Policy).  The
//     semi-partitioned packer splits tasks that fit no single CPU into
//     restricted-migration pipeline chunks (split_task) and by construction
//     admits at least as much utilization as the best pure partitioning.
//   * split_task — the pipeline-split math: chunk i runs on its own CPU
//     with constraints periodic(phi + i*tau, tau, sigma_i), so within one
//     logical job the chunks' windows are disjoint and ordered — chunk i's
//     deadline is exactly chunk i+1's release — and no two chunks of the
//     same job can ever run concurrently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/admission.hpp"
#include "rt/constraints.hpp"
#include "sim/time.hpp"

namespace hrt::global {

class UtilizationLedger;

inline constexpr std::uint32_t kInvalidCpu = 0xFFFFFFFFu;

/// Candidate orders of the offline packers (pack_decreasing).
enum class Policy : std::uint8_t {
  kFirstFit,   // lowest-numbered CPU with headroom
  kBestFit,    // most-loaded CPU that still fits (minimum residual)
  kWorstFit,   // least-loaded CPU (maximum residual; balances load)
  kTopology,   // worst-fit, but steer RT work off interrupt-laden CPUs
};

[[nodiscard]] const char* policy_name(Policy p);

struct Config {
  /// Mirror of nk::Kernel::Options::interrupt_laden_cpus: CPUs [0, n) take
  /// device interrupts (section 3.5's partition), so placement puts RT
  /// threads on CPUs >= n whenever they fit there.
  std::uint32_t interrupt_laden_cpus = 1;
  /// Rebalancer knobs (rebalancer.hpp).
  double rebalance_threshold = 0.25;  // act when max-min committed gap >= this
  sim::Nanos rebalance_task_size = sim::micros(5);
};

/// Online placement decisions against the live ledger.
class PlacementEngine {
 public:
  PlacementEngine(const UtilizationLedger& ledger, Config cfg)
      : ledger_(ledger), cfg_(cfg) {}

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Does placement steer RT work off the interrupt-laden CPUs [0, laden)?
  /// True when the machine has interrupt-free CPUs.
  [[nodiscard]] bool steers_rt() const;

  /// The one fit test: `cpu`'s ledger headroom takes `util`, within a flat
  /// 1e-9 slack (placement.cpp).
  [[nodiscard]] bool fits(std::uint32_t cpu, double util) const;

  /// Co-place `n` group members, each demanding `c`'s utilization: the
  /// first `n` CPUs of rt_cpu_order() that fit (group collectives gain
  /// nothing from sharing a CPU; distinct CPUs let all members run
  /// concurrently).  Empty result if fewer than `n` CPUs fit.
  [[nodiscard]] std::vector<std::uint32_t> choose_group(
      std::uint32_t n, const rt::Constraints& c) const;

  /// One placement pass for a whole batch (System::spawn_batch, and
  /// GlobalScheduler::place for one spec): the ledger is snapshotted once
  /// into a scratch max-heap on (headroom, lower CPU index), then the specs
  /// are packed worst-fit-decreasing against the scratch — each placement
  /// debits it, so later specs see earlier ones without another ledger
  /// read.  Each spec takes the first CPU in the ranking (quiet before
  /// storm-hit, then its partition first when steering: interrupt-free for
  /// RT demand, interrupt-laden for the rest, then the heap order) that
  /// fits it; a spec that fits nowhere takes the first CPU in the ranking.
  /// A spec costs O(log CPUs) when the first CPU it pops passes.
  /// result[i] is the CPU for specs[i].
  [[nodiscard]] std::vector<std::uint32_t> place_batch(
      const std::vector<rt::Constraints>& specs) const;

  /// All CPUs in the ranking for RT demand: quiet (not storm-hit) first,
  /// then interrupt-free (when steering), then by descending headroom;
  /// ties keep CPU order.  choose_group, the rebalancer (make-room victims,
  /// every migration destination) and the storm drain walk it.
  [[nodiscard]] std::vector<std::uint32_t> rt_cpu_order() const;

  /// Storm deprioritization (docs/RESILIENCE.md): the ledger entry's storm
  /// flag, raised by the resilience controller on CPUs it has classified
  /// as storm-hit; the ranking puts quiet CPUs first, so stormy ones are
  /// used only when nothing else fits.  SMIs freeze the whole machine, but
  /// per-CPU flags matter because storm-hit CPUs are the ones whose
  /// *committed* load no longer fits their degraded capacity.
  [[nodiscard]] bool storm_hit(std::uint32_t cpu) const;

 private:
  const UtilizationLedger& ledger_;
  Config cfg_;
};

// --- offline set packing (bench + overflow planning) ---

struct SplitChunk {
  std::uint32_t cpu = kInvalidCpu;
  rt::Constraints constraints;
};

struct SplitPlan {
  bool ok = false;
  std::vector<SplitChunk> chunks;
};

/// Split one periodic task across CPUs as a restricted-migration pipeline.
/// `headroom[i]` is the spare utilization on CPU i.  Chunk i gets
/// periodic(task.phase + i*task.period, task.period, sigma_i) with
/// sigma_i <= headroom[cpu_i] * period, chunks ordered by decreasing
/// headroom.  Fails (ok=false) when the task fits in no combination of
/// max_chunks CPUs or a chunk would drop under min_slice.
///
/// The phase offsets make the same job's chunk windows disjoint: chunk i
/// owns [arrival + i*tau, arrival + (i+1)*tau), so pieces never run
/// concurrently and every piece still enjoys a plain implicit-deadline
/// periodic reservation on its CPU.  The cost is end-to-end latency: the
/// logical job completes k*tau after its release instead of tau
/// (docs/GLOBAL.md discusses this relaxation).
[[nodiscard]] SplitPlan split_task(const rt::PeriodicTask& task,
                                   const std::vector<double>& headroom,
                                   sim::Nanos min_slice,
                                   std::uint32_t max_chunks);

struct PackResult {
  /// assignment[i] = CPU of tasks[i], or kInvalidCpu if not placed.
  std::vector<std::uint32_t> assignment;
  std::vector<double> per_cpu;  // committed utilization per CPU
  double admitted_util = 0.0;
  std::uint32_t placed = 0;
};

/// Decreasing-utilization bin packing of `tasks` onto `num_cpus` CPUs of
/// `capacity` each, under `policy`'s candidate ordering.  Fit test is the
/// real rt::edf_admissible over the tentative per-CPU set, so a reported
/// packing is exactly what per-CPU admission would accept.
[[nodiscard]] PackResult pack_decreasing(const std::vector<rt::PeriodicTask>& tasks,
                                         std::uint32_t num_cpus,
                                         double capacity, Policy policy,
                                         std::uint32_t interrupt_laden_cpus = 0);

struct SemiPartitionedResult {
  PackResult base;          // best pure partitioning found
  Policy base_policy = Policy::kWorstFit;
  /// splits[j] = plan for the j-th task the base packing left unplaced
  /// (index into the original task vector in .task_index).
  struct Split {
    std::size_t task_index = 0;
    SplitPlan plan;
  };
  std::vector<Split> splits;
  std::vector<double> per_cpu;
  double admitted_util = 0.0;
  std::uint32_t placed = 0;  // tasks placed whole or split
};

/// Best of FFD/BFD/WFD, then pipeline-split the leftovers into remaining
/// headroom (each chunk re-validated with rt::edf_admissible before
/// committing).  admitted_util >= every pure policy's by construction.
[[nodiscard]] SemiPartitionedResult pack_semi_partitioned(
    const std::vector<rt::PeriodicTask>& tasks, std::uint32_t num_cpus,
    double capacity, sim::Nanos min_slice, std::uint32_t max_chunks);

}  // namespace hrt::global
