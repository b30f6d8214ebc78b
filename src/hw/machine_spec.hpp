// MachineSpec: the cost model of a simulated x64 node.
//
// The paper evaluates on two machines (section 5.1):
//   * "Phi":  Colfax KNL Ninja — Intel Xeon Phi 7210, 64 cores x 4 HW threads
//             = 256 CPUs at 1.3 GHz.  Slow individual hardware threads.
//   * "R415": Dell R415 — dual AMD 4122, 8 CPUs at 2.2 GHz.  Much faster
//             individual hardware threads, so lower cycle costs.
//
// All software path lengths are expressed in cycles so that the Phi/R415
// contrast of Figures 5-9 (identical shape, shifted feasibility edge) is
// driven by exactly what drives it on real hardware: per-CPU speed.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace hrt::hw {

/// Software path lengths, in cycles.  Jitter (the oscilloscope "fuzz" of
/// Figure 4) is applied multiplicatively when costs are charged.
struct CostModel {
  sim::Cycles irq_dispatch;          // vectoring, entry/exit, EOI
  sim::Cycles sched_pass_base;       // one local scheduler pass
  sim::Cycles sched_pass_per_thread; // queue-size-dependent component
  sim::Cycles context_switch;        // register/stack switch
  sim::Cycles sched_other;           // accounting + APIC reprogramming
  sim::Cycles admission_control;     // one local admission-control call
  sim::Cycles atomic_rmw;            // uncontended atomic read-modify-write
  sim::Cycles cacheline_transfer;    // cross-CPU cache line migration
  sim::Cycles spin_notice;           // latency for a spinner to observe a flag
  sim::Cycles thread_create;         // thread pool allocation + setup
  sim::Cycles group_scan_per_member; // collective O(n) member scan, per member
  double jitter_rel_std;             // relative std-dev on charged costs
                                     // (finite, >= 0; Machine checks)
};

/// APIC timer properties.
struct TimerSpec {
  sim::Nanos apic_tick_ns;  // one-shot countdown granularity (>= 0, and
                            // > 0 unless tsc_deadline; Machine checks)
  bool tsc_deadline;        // if true, program deadlines in TSC cycles
  sim::Nanos ipi_latency_ns;
};

/// System management interrupt ("missing time") behavior.  SMIs stop every
/// CPU while firmware runs; software cannot mask or observe them except as
/// a surprising jump in the cycle counter (section 3.6).
///
/// Burst mode models pathological firmware (thermal handlers, EC polling
/// loops) as a two-state Markov modulation: the source dwells in a quiet
/// state at `mean_interval_ns`, occasionally flips into a storm state where
/// SMIs arrive at `storm_mean_interval_ns`, then recovers.  Dwell times in
/// both states are exponential, so the whole process stays deterministic
/// under a seeded RNG.
struct SmiSpec {
  bool enabled;
  sim::Nanos mean_interval_ns;  // exponential inter-arrival mean (quiet)
  sim::Nanos min_duration_ns;
  sim::Nanos mean_duration_ns;  // min + exponential tail
  sim::Nanos max_duration_ns;   // clamp

  bool burst_enabled = false;
  sim::Nanos storm_mean_interval_ns = 0;  // inter-arrival mean while storming
  sim::Nanos mean_quiet_ns = 0;           // exponential dwell in quiet state
  sim::Nanos mean_storm_ns = 0;           // exponential dwell in storm state

  /// Returns nullptr when the spec is internally consistent, else a static
  /// string naming the first violated constraint.  `Machine` rejects invalid
  /// specs at construction (a mean below the minimum used to feed a negative
  /// mean into the exponential draw, silently).
  [[nodiscard]] const char* validate() const;
};

/// Boot-time cycle counter skew across CPUs and calibration quality.
struct SkewSpec {
  sim::Nanos boot_skew_max_ns;   // raw per-CPU TSC offset, uniform [0, max]
  sim::Cycles calib_error_std;   // residual error of offset estimation
  sim::Cycles calib_error_max;   // clamp on the residual
  bool tsc_writable;             // whether write-back correction is possible
};

struct MachineSpec {
  std::string name;
  std::uint32_t num_cpus = 1;
  sim::Frequency freq{1'000'000'000};
  CostModel cost;
  TimerSpec timer;
  SmiSpec smi;
  SkewSpec skew;

  /// Intel Xeon Phi 7210 (Knights Landing), 256 hardware threads @ 1.3 GHz.
  /// Total scheduler software overhead ~6000 cycles (Figure 5a); feasibility
  /// edge ~10 us (Figure 6).
  static MachineSpec phi();

  /// Dell R415, dual AMD 4122, 8 hardware threads @ 2.2 GHz.  Roughly 2.4x
  /// lower cycle overheads (Figure 5b); feasibility edge ~4 us (Figure 7).
  static MachineSpec r415();

  /// phi() with a reduced CPU count, for fast unit tests.
  static MachineSpec phi_small(std::uint32_t cpus);
};

}  // namespace hrt::hw
