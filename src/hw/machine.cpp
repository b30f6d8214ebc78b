#include "hw/machine.hpp"

#include <cmath>
#include <stdexcept>

namespace hrt::hw {

Machine::Machine(const MachineSpec& spec, std::uint64_t seed)
    : spec_(spec),
      rng_(seed),
      gpio_(trace_),
      ioapic_([this](std::uint32_t cpu_id, Vector v) {
        cpus_[cpu_id]->raise(v);
      }) {
  if (const char* err = spec_.smi.validate()) {
    throw std::invalid_argument(err);
  }
  // The schedulers' release slop is one tick in either mode, and
  // Apic::quantize divides by it unless deadlines are in TSC cycles.
  if (spec_.timer.apic_tick_ns < 0 ||
      (!spec_.timer.tsc_deadline && spec_.timer.apic_tick_ns == 0)) {
    throw std::invalid_argument(
        "TimerSpec: apic_tick_ns must be >= 0, and > 0 without tsc_deadline");
  }
  // A NaN passes jittered()'s `rel_std <= 0` test and would reach an int64
  // cast; an infinity or a negative spread is no cost model either.
  if (!std::isfinite(spec_.cost.jitter_rel_std) ||
      spec_.cost.jitter_rel_std < 0.0) {
    throw std::invalid_argument(
        "CostModel: jitter_rel_std must be finite and >= 0");
  }
  cpus_.reserve(spec_.num_cpus);
  for (std::uint32_t i = 0; i < spec_.num_cpus; ++i) {
    // CPU 0 defines wall-clock time (section 3.4); the rest carry a raw
    // boot-time TSC skew that calibration will estimate and cancel.
    sim::Nanos offset = 0;
    if (i != 0) {
      offset = rng_.uniform(0, spec_.skew.boot_skew_max_ns);
    }
    cpus_.push_back(
        std::make_unique<Cpu>(i, spec_, engine_, offset, rng_.fork(i)));
  }
  smi_ = std::make_unique<SmiSource>(
      engine_, spec_.smi, rng_.fork(0x5111),
      [this](sim::Nanos d) { freeze_all(d); });
}

void Machine::send_ipi(std::uint32_t /*from*/, std::uint32_t to,
                       Vector vector) {
  engine_.schedule_after(
      spec_.timer.ipi_latency_ns,
      [this, to, vector] { cpus_[to]->raise(vector); },
      sim::EventBand::kHardware);
}

Device& Machine::add_device(Vector vector, Device::Arrival arrival,
                            sim::Nanos mean_interval) {
  devices_.push_back(std::make_unique<Device>(
      engine_, ioapic_, vector, arrival, mean_interval,
      rng_.fork(0xde70 + devices_.size())));
  ioapic_.route(vector, 0);
  return *devices_.back();
}

void Machine::freeze_all(sim::Nanos duration) {
  sim::Engine& eng = engine();
  const sim::Nanos now = eng.now();
  const sim::Nanos until = now + duration;
  if (freeze_depth_ == 0) {
    freeze_depth_ = 1;
    freeze_start_ = now;
    frozen_until_ = until;
    for (auto& c : cpus_) {
      if (hooks_.on_freeze) hooks_.on_freeze(c->id());
      c->freeze();
    }
  } else {
    // Overlapping SMI: extend the window.
    if (until > frozen_until_) frozen_until_ = until;
  }
  eng.schedule_at(
      frozen_until_,
      [this] {
        if (freeze_depth_ == 0 || engine().now() < frozen_until_) {
          return;  // stale (window was extended)
        }
        freeze_depth_ = 0;
        const sim::Nanos d = engine().now() - freeze_start_;
        for (auto& c : cpus_) {
          if (hooks_.on_unfreeze) hooks_.on_unfreeze(c->id(), d);
        }
        // Unfreeze after all executors adjusted their in-flight work, so
        // pended interrupts are taken against consistent state.
        for (auto& c : cpus_) {
          c->unfreeze();
        }
      },
      sim::EventBand::kSmi);
}

}  // namespace hrt::hw
