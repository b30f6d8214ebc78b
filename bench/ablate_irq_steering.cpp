// Ablation (section 3.5): interrupt steering and segregation.
//
// Three placements of a tight periodic thread while a device hammers CPU 0
// with interrupts:
//   1. interrupt-free partition (CPU 1): device interrupts never arrive;
//   2. interrupt-laden CPU 0 *with* APIC TPR steering: interrupts latch
//      while the RT thread runs and are taken afterwards;
//   3. interrupt-laden CPU 0 with steering disabled: handlers preempt the
//      RT thread and eat its slack.
#include "common.hpp"

using namespace hrt;

namespace {

double run_case(std::uint32_t rt_cpu, bool steering, std::uint64_t seed) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.seed = seed;
  o.tpr_steering = steering;
  o.spec.smi.enabled = false;  // isolate the device-interrupt effect
  System sys(std::move(o));

  // A chatty device: ~50k interrupts/s, each with a 6000-cycle handler.
  auto& dev = sys.machine().add_device(0x40, hw::Device::Arrival::kPoisson,
                                       sim::micros(20));
  sys.kernel().register_device_handler(0x40, 6000);
  sys.boot();
  sys.kernel().apply_interrupt_partition();
  dev.start();

  auto behavior = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::millis(1), sim::micros(50), sim::micros(35)));
        }
        return nk::Action::compute(sim::micros(10));
      });
  nk::Thread* t = sys.spawn("rt", std::move(behavior), rt_cpu);
  sys.run_for(sim::millis(300));
  return t->rt.arrivals > 0 ? static_cast<double>(t->rt.misses) /
                                  static_cast<double>(t->rt.arrivals)
                            : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  bench::header(
      "Ablation: interrupt steering (tau=50us sigma=35us; device storm "
      "~50k irq/s with 6000-cycle handlers on CPU 0)",
      "the interrupt-free partition and TPR steering both protect RT "
      "threads; disabling steering on a laden CPU causes misses");

  const double irq_free = run_case(1, true, args.seed);
  const double laden_steered = run_case(0, true, args.seed);
  const double laden_exposed = run_case(0, false, args.seed);

  std::printf("\n%-38s %12s\n", "placement", "miss rate %");
  std::printf("%-38s %12.2f\n", "CPU 1 (interrupt-free partition)",
              irq_free * 100.0);
  std::printf("%-38s %12.2f\n", "CPU 0, TPR steering on", laden_steered * 100.0);
  std::printf("%-38s %12.2f\n", "CPU 0, TPR steering off",
              laden_exposed * 100.0);

  bench::shape_check("interrupt-free partition: no misses", irq_free < 0.001);
  bench::shape_check("TPR steering protects RT on the laden CPU",
                     laden_steered < 0.01);
  bench::shape_check("without steering, the storm causes misses",
                     laden_exposed > 10.0 * (laden_steered + 0.0001));
  return 0;
}
