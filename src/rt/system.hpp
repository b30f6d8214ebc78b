// System: the public facade tying together the simulated machine, the
// Nautilus-model kernel, and the hard real-time scheduler.
//
// Typical use (see examples/quickstart.cpp):
//
//   hrt::System sys;                     // Xeon Phi spec, default config
//   sys.boot();
//   auto* t = sys.spawn("worker", behavior, /*cpu=*/1);
//   // the behavior requests periodic constraints via
//   // Action::change_constraints(Constraints::periodic(phi, tau, sigma));
//   sys.run_for(sim::millis(100));
//   // inspect t->rt.arrivals / misses / miss_ns ...
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "global/global_scheduler.hpp"
#include "group/group.hpp"
#include "hw/machine.hpp"
#include "nautilus/kernel.hpp"
#include "resilience/storm.hpp"
#include "rt/local_scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt {

class System {
 public:
  struct Options {
    hw::MachineSpec spec = hw::MachineSpec::phi();
    std::uint64_t seed = 42;
    rt::LocalScheduler::Config sched{};
    bool work_stealing = false;
    /// nk::Kernel::Options::interrupt_laden_cpus (the constructor throws
    /// std::invalid_argument past the machine's CPU count).
    std::uint32_t interrupt_laden_cpus = 1;
    bool tpr_steering = true;
    /// Scheduler invariant audits (audit/auditor.hpp).  Off by default;
    /// HRT_FORCE_AUDIT builds force them on and throwing regardless.
    audit::Config audit{};
    /// Global placement subsystem (src/global/, docs/GLOBAL.md).
    /// interrupt_laden_cpus is synced from the option above at construction.
    global::Config placement_config{};
    /// SMI missing-time resilience (src/resilience/, docs/RESILIENCE.md).
    /// Off by default; when enabled the estimator knobs are copied into the
    /// per-CPU scheduler config and the storm controller starts at boot().
    resilience::Config resilience{};
    /// Telemetry flight recorder + metrics + SLO observability
    /// (src/telemetry/, docs/OBSERVABILITY.md).  Off by default: the kernel
    /// carries a null pointer and scheduling is bit-identical to a build
    /// without the subsystem.
    telemetry::Config telemetry{};
  };

  System();  // Xeon Phi spec, default scheduler config
  explicit System(Options options);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Boot the kernel (idempotent guard inside the kernel) and, when
  /// resilience is enabled, start the storm controller's sampling loop.
  void boot() {
    kernel_->boot();
    storm_->start();
  }

  [[nodiscard]] hw::Machine& machine() { return *machine_; }
  [[nodiscard]] nk::Kernel& kernel() { return *kernel_; }
  [[nodiscard]] sim::Engine& engine() { return machine_->engine(); }
  [[nodiscard]] grp::GroupRegistry& groups() { return *groups_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] audit::Auditor& auditor() { return *auditor_; }
  [[nodiscard]] global::GlobalScheduler& placement() { return *global_; }
  [[nodiscard]] resilience::StormController& resilience() { return *storm_; }
  [[nodiscard]] telemetry::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const {
    return *telemetry_;
  }

  /// The concrete hard real-time scheduler on `cpu`.
  [[nodiscard]] rt::LocalScheduler& sched(std::uint32_t cpu) {
    return *kernel_->local_scheduler(cpu);
  }

  /// Create an aperiodic thread bound to `cpu`.  Throws std::out_of_range
  /// on a CPU the machine does not have.
  nk::Thread* spawn(std::string name, std::unique_ptr<nk::Behavior> behavior,
                    std::uint32_t cpu,
                    rt::AperiodicPriority priority = rt::kDefaultPriority);

  /// Auto-placed spawn: the global placement engine picks the CPU for
  /// `constraints`, and the behavior is wrapped so the thread requests
  /// admission itself, retrying (with rebalancer help) on rejection before
  /// handing control to `behavior` (docs/GLOBAL.md).
  nk::Thread* spawn_auto(std::string name,
                         std::unique_ptr<nk::Behavior> behavior,
                         const rt::Constraints& constraints,
                         rt::AperiodicPriority priority = rt::kDefaultPriority);

  /// One thread of a batch spawn (spawn_batch).
  struct SpawnSpec {
    std::string name;
    std::unique_ptr<nk::Behavior> behavior;
    rt::Constraints constraints;  // aperiodic specs skip admission entirely
    rt::AperiodicPriority priority = rt::kDefaultPriority;
  };

  struct BatchSpawnResult {
    bool ok = false;
    /// Empty when !ok (all-or-nothing: a rejected batch creates nothing).
    std::vector<nk::Thread*> threads;  // threads[i] came from specs[i]
    std::vector<std::uint32_t> cpus;   // cpus[i] = threads[i]'s CPU
  };

  /// Batched spawn with group admission semantics: ONE placement pass over
  /// the whole vector (global::PlacementEngine::place_batch), pool-backed
  /// parked thread creation, and ONE admission analysis per target CPU
  /// (rt::LocalScheduler::reserve_batch) instead of one per spec.
  /// All-or-nothing: if any CPU rejects its subset, every reservation is
  /// rolled back and every thread returned to the pool — the system is left
  /// exactly as it was, and no thread was ever visible to a scheduler.  On
  /// success each RT thread commits its reserved constraints at first run
  /// (the reservation makes that commit an O(1) fast-path probe).
  BatchSpawnResult spawn_batch(std::vector<SpawnSpec> specs);

  /// Semi-partitioned overflow spawn: split a periodic constraint that fits
  /// no single CPU into pipeline chunks (global::split_task) and spawn one
  /// auto-admitted thread per chunk, named `name.0`, `name.1`, ...
  /// `make_inner(i)` supplies chunk i's behavior (default: busy loop).
  /// Empty result when no viable split exists.
  std::vector<nk::Thread*> spawn_split(
      const std::string& name, const rt::Constraints& constraints,
      const std::function<std::unique_ptr<nk::Behavior>(std::uint32_t)>&
          make_inner = nullptr);

  /// Group-aware auto placement: choose `n` distinct CPUs with headroom for
  /// `constraints` (interrupt-free preferred), create group `name`, and
  /// spawn one member per CPU running the full group admission protocol
  /// around `make_inner(i)`.  Empty result when the CPUs or the group name
  /// are unavailable.
  std::vector<nk::Thread*> spawn_group_auto(
      const std::string& name, std::uint32_t n,
      const rt::Constraints& constraints,
      const std::function<std::unique_ptr<nk::Behavior>(std::uint32_t)>&
          make_inner);

  /// Advance the simulation.
  void run_for(sim::Nanos d) { engine().run_until(engine().now() + d); }
  void run_until(sim::Nanos t) { engine().run_until(t); }

  /// Charge every CPU's open run span so per-thread CPU-time statistics are
  /// current as of now().  Call before reading Thread::total_cpu_ns for a
  /// thread that may still be running.
  void sync_accounting() {
    for (std::uint32_t c = 0; c < kernel_->num_cpus(); ++c) {
      kernel_->executor(c).sync_run_span();
    }
  }

 private:
  Options options_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<audit::Auditor> auditor_;  // before kernel_: schedulers use it
  std::unique_ptr<telemetry::Telemetry> telemetry_;  // before kernel_ too
  std::unique_ptr<global::GlobalScheduler> global_;  // ledger precedes kernel_
  std::unique_ptr<nk::Kernel> kernel_;
  std::unique_ptr<grp::GroupRegistry> groups_;
  std::unique_ptr<resilience::StormController> storm_;  // after kernel_
};

}  // namespace hrt
