// The benchmark's three workloads on the full hw::MachineSpec::phi() model.
//
// One iteration of a workload builds its System(s) from scratch, runs them,
// and checks the outcome; iterations of one seed are identical simulations,
// so their fingerprints must agree.  Every timed simulation is serial: one
// System at a time, sim_host_threads = 1, no sweep worker pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Inputs derived from the one --seed argument: the System seed (cost
/// jitter, SMI arrivals, boot skew) and the generator seed that builds the
/// thread and spec mix.
struct Inputs {
  std::uint64_t sys_seed = 0;
  std::uint64_t gen_seed = 0;
  bool smoke = false;  // a few simulated ms, for the benchmark's own tests
};

Inputs derive_inputs(std::uint64_t seed, bool smoke);

/// Outcome of one iteration.
struct IterResult {
  // Host seconds per phase (summed over the cells of bsp_group_phi255).
  double setup_s = 0.0;
  double run_s = 0.0;
  double check_s = 0.0;

  // Simulated outcomes (deterministic per seed).
  std::int64_t sim_ns = 0;           // simulated time advanced by the run
  std::uint64_t systems = 0;         // System instances simulated
  std::uint64_t events = 0;          // engine events executed
  std::uint64_t windows = 0;         // deadline windows closed by RT threads
  std::uint64_t misses = 0;          // ... of which missed
  std::uint64_t admit_requested = 0; // admission requests (threads)
  std::uint64_t admit_accepted = 0;
  std::uint64_t fingerprint = 0;

  // Workload-specific outputs feeding the per-layer metrics.
  std::uint64_t barrier_rounds = 0;
  double bsp_speedup = 0.0;         // mean simulated makespan ratio
  std::uint64_t replay_divergences = 0;
  std::uint64_t livelocked_cpus = 0;  // known timer-pass livelock (churn)
  double record_cost_ns = 0.0;      // recorder's sampled cost, mean of cells

  std::vector<std::string> failures;  // failed correctness checks
};

using Workload = IterResult (*)(const Inputs&, Tracer&);

IterResult run_missrate_phi256(const Inputs& in, Tracer& tr);
IterResult run_bsp_group_phi255(const Inputs& in, Tracer& tr);
IterResult run_admit_churn_phi256(const Inputs& in, Tracer& tr);

/// Workload by name; null if unknown.
Workload find_workload(const std::string& name);

}  // namespace perfbench
