// The simulated node: engine + CPUs + interrupt fabric + SMI source + GPIO.
//
// The Machine owns the hardware only; the kernel layer (nautilus/) installs
// hooks for interrupt delivery and SMI freezes.  SMIs are applied machine-
// wide: every CPU freezes, pending interrupts latch, timers and TSCs keep
// counting, and on resume software observes the missing time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/device.hpp"
#include "hw/gpio.hpp"
#include "hw/ioapic.hpp"
#include "hw/machine_spec.hpp"
#include "hw/smi.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace hrt::hw {

class Machine {
 public:
  /// Hooks the kernel installs so its executors can suspend/resume work
  /// around an SMI window.  Called once per CPU per transition.
  struct FreezeHooks {
    std::function<void(std::uint32_t cpu)> on_freeze;
    std::function<void(std::uint32_t cpu, sim::Nanos duration)> on_unfreeze;
  };

  explicit Machine(const MachineSpec& spec, std::uint64_t seed = 42);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineSpec& spec() const { return spec_; }

  /// The one engine every CPU, device and the SMI source schedule on.
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] Gpio& gpio() { return gpio_; }
  [[nodiscard]] IoApic& ioapic() { return ioapic_; }
  [[nodiscard]] SmiSource& smi() { return *smi_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  [[nodiscard]] std::uint32_t num_cpus() const {
    return static_cast<std::uint32_t>(cpus_.size());
  }
  [[nodiscard]] Cpu& cpu(std::uint32_t i) { return *cpus_[i]; }
  [[nodiscard]] const Cpu& cpu(std::uint32_t i) const { return *cpus_[i]; }

  void set_freeze_hooks(FreezeHooks hooks) { hooks_ = std::move(hooks); }

  /// Send an IPI from one CPU to another (kick).  Delivery is delayed by the
  /// interconnect latency.
  void send_ipi(std::uint32_t from, std::uint32_t to, Vector vector);

  /// Attach a synthetic device on `vector`, routed initially to CPU 0.
  Device& add_device(Vector vector, Device::Arrival arrival,
                     sim::Nanos mean_interval);

  /// Stop the world for `duration` (SMI semantics).  Public so failure-
  /// injection tests can freeze directly.
  void freeze_all(sim::Nanos duration);

  [[nodiscard]] bool frozen() const { return freeze_depth_ > 0; }

 private:
  MachineSpec spec_;
  // Declared before everything engine-dependent so it is destroyed last
  // (CPUs, SMI source, and devices hold references into it).
  sim::Engine engine_;
  sim::Rng rng_;
  sim::Trace trace_;
  Gpio gpio_;
  IoApic ioapic_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::unique_ptr<SmiSource> smi_;
  std::vector<std::unique_ptr<Device>> devices_;
  FreezeHooks hooks_;
  int freeze_depth_ = 0;
  sim::Nanos freeze_start_ = 0;
  sim::Nanos frozen_until_ = 0;
};

}  // namespace hrt::hw
