// Unit tests for the simulated hardware: TSC, APIC timer, CPU interrupt
// acceptance rules, SMI source, GPIO, IoApic routing, machine-wide freeze.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "hw/machine.hpp"

namespace hrt::hw {
namespace {

MachineSpec tiny() { return MachineSpec::phi_small(2); }

// ---------- Tsc ----------

TEST(Tsc, ReadTracksEngineAtFrequency) {
  sim::Engine eng;
  Tsc tsc(eng, sim::Frequency(1'000'000'000), 0);
  eng.schedule_at(1000, [] {});
  eng.run_all();
  EXPECT_EQ(tsc.read(), 1000);  // 1 GHz: 1 cycle per ns
}

TEST(Tsc, OffsetShiftsReads) {
  sim::Engine eng;
  Tsc tsc(eng, sim::Frequency(1'000'000'000), 500);
  EXPECT_EQ(tsc.read(), 500);
  EXPECT_EQ(tsc.wall_ns(), 500);
}

TEST(Tsc, WriteRebasesCounter) {
  sim::Engine eng;
  Tsc tsc(eng, sim::Frequency(1'000'000'000), 777);
  tsc.write(0);
  EXPECT_EQ(tsc.read(), 0);
  EXPECT_EQ(tsc.true_offset_ns(), 0);
}

TEST(Tsc, AdjustCyclesAppliesDelta) {
  sim::Engine eng;
  Tsc tsc(eng, sim::Frequency(2'000'000'000), 100);
  tsc.adjust_cycles(-200);  // 200 cycles @2GHz = 100 ns
  EXPECT_EQ(tsc.true_offset_ns(), 0);
}

// ---------- Apic ----------

TEST(Apic, OneShotFiresAtQuantizedDelay) {
  sim::Engine eng;
  std::vector<Vector> fired;
  Apic apic(eng, TimerSpec{20, false, 400}, sim::Frequency(1'300'000'000),
            [&](Vector v) { fired.push_back(v); });
  apic.arm_oneshot(105);  // 5 ticks of 20 ns = 100 ns, conservative
  eng.run_all();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], kTimerVector);
  EXPECT_EQ(eng.now(), 100);
}

TEST(Apic, MinimumOneTick) {
  sim::Engine eng;
  int fires = 0;
  Apic apic(eng, TimerSpec{20, false, 400}, sim::Frequency(1'300'000'000),
            [&](Vector) { ++fires; });
  apic.arm_oneshot(0);
  eng.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(eng.now(), 20);
}

TEST(Apic, RearmReplacesPrevious) {
  sim::Engine eng;
  int fires = 0;
  Apic apic(eng, TimerSpec{20, false, 400}, sim::Frequency(1'300'000'000),
            [&](Vector) { ++fires; });
  apic.arm_oneshot(1000);
  apic.arm_oneshot(200);
  eng.run_all();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(eng.now(), 200);
}

TEST(Apic, CancelStopsTimer) {
  sim::Engine eng;
  int fires = 0;
  Apic apic(eng, TimerSpec{20, false, 400}, sim::Frequency(1'300'000'000),
            [&](Vector) { ++fires; });
  apic.arm_oneshot(100);
  apic.cancel();
  eng.run_all();
  EXPECT_EQ(fires, 0);
}

TEST(Apic, TscDeadlineModeIsCycleGranular) {
  sim::Engine eng;
  Apic apic(eng, TimerSpec{20, true, 400}, sim::Frequency(1'000'000'000),
            [](Vector) {});
  apic.arm_oneshot(105);
  EXPECT_EQ(apic.armed_delay(), 105);  // 1 GHz: 1 cycle = 1 ns, exact
  EXPECT_LT(apic.max_earliness(), 2);
}

TEST(Apic, EarlinessNeverLate) {
  sim::Engine eng;
  Apic apic(eng, TimerSpec{20, false, 400}, sim::Frequency(1'300'000'000),
            [](Vector) {});
  for (sim::Nanos d = 1; d < 500; d += 7) {
    apic.arm_oneshot(d);
    EXPECT_LE(apic.armed_delay(), std::max<sim::Nanos>(d, 20));
    apic.cancel();
  }
  EXPECT_LE(apic.earliness().max(), 20.0);
}

// ---------- Cpu interrupt rules ----------

struct CpuFixture : ::testing::Test {
  CpuFixture() : machine(tiny(), 7) {}
  hw::Machine machine;
};

TEST_F(CpuFixture, DeliversWhenAcceptable) {
  std::vector<Vector> got;
  Cpu& cpu = machine.cpu(0);
  cpu.set_deliver_hook([&](Vector v) { got.push_back(v); });
  cpu.raise(0x40);
  EXPECT_EQ(got, (std::vector<Vector>{0x40}));
}

TEST_F(CpuFixture, PendsWhileInterruptsDisabled) {
  std::vector<Vector> got;
  Cpu& cpu = machine.cpu(0);
  cpu.set_deliver_hook([&](Vector v) { got.push_back(v); });
  cpu.set_interrupts_enabled(false);
  cpu.raise(0x40);
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(cpu.is_pending(0x40));
  cpu.set_interrupts_enabled(true);
  EXPECT_EQ(got, (std::vector<Vector>{0x40}));
  EXPECT_FALSE(cpu.is_pending(0x40));
}

TEST_F(CpuFixture, TprBlocksLowPriorityVectors) {
  std::vector<Vector> got;
  Cpu& cpu = machine.cpu(0);
  cpu.set_deliver_hook([&](Vector v) { got.push_back(v); });
  cpu.set_tpr(kTprRealTime);
  cpu.raise(0x40);            // class 4 <= 0xE: blocked
  EXPECT_TRUE(got.empty());
  cpu.raise(kTimerVector);    // class 0xF > 0xE: delivered
  EXPECT_EQ(got, (std::vector<Vector>{kTimerVector}));
  cpu.set_tpr(kTprOpen);      // lowering TPR releases the pended vector
  EXPECT_EQ(got, (std::vector<Vector>{kTimerVector, 0x40}));
}

TEST_F(CpuFixture, HighestPriorityPendingDeliveredFirst) {
  std::vector<Vector> got;
  Cpu& cpu = machine.cpu(0);
  cpu.set_deliver_hook([&](Vector v) { got.push_back(v); });
  cpu.set_interrupts_enabled(false);
  cpu.raise(0x35);
  cpu.raise(kTimerVector);
  cpu.raise(0x60);
  cpu.set_interrupts_enabled(true);
  EXPECT_EQ(got, (std::vector<Vector>{kTimerVector, 0x60, 0x35}));
}

TEST_F(CpuFixture, FrozenCpuPendsEverything) {
  std::vector<Vector> got;
  Cpu& cpu = machine.cpu(0);
  cpu.set_deliver_hook([&](Vector v) { got.push_back(v); });
  cpu.freeze();
  cpu.raise(kTimerVector);
  EXPECT_TRUE(got.empty());
  cpu.unfreeze();
  EXPECT_EQ(got, (std::vector<Vector>{kTimerVector}));
}

TEST_F(CpuFixture, HookDisablingInterruptsPreventsNestedDelivery) {
  std::vector<Vector> got;
  Cpu& cpu = machine.cpu(0);
  cpu.set_deliver_hook([&](Vector v) {
    got.push_back(v);
    cpu.set_interrupts_enabled(false);  // handler entry behavior
    cpu.raise(0x50);                    // arrives during handler
    EXPECT_TRUE(got.size() == 1 || v == 0x50);
  });
  cpu.raise(0x40);
  EXPECT_EQ(got.size(), 1u);
  cpu.set_interrupts_enabled(true);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], 0x50);
}

// ---------- SMI source ----------

TEST(Smi, DisabledSpecNeverFires) {
  MachineSpec spec = tiny();
  spec.smi.enabled = false;
  Machine m(spec, 3);
  m.smi().start();
  m.engine().run_until(sim::seconds(1));
  EXPECT_EQ(m.smi().stats().count, 0u);
}

TEST(Smi, RateAndDurationFollowSpec) {
  MachineSpec spec = tiny();
  spec.smi.enabled = true;
  spec.smi.mean_interval_ns = sim::millis(1);
  spec.smi.min_duration_ns = sim::micros(5);
  spec.smi.mean_duration_ns = sim::micros(10);
  spec.smi.max_duration_ns = sim::micros(20);
  Machine m(spec, 3);
  m.smi().start();
  m.engine().run_until(sim::seconds(1));
  // ~1000 expected; allow generous tolerance.
  const SmiStats st = m.smi().stats();
  EXPECT_GT(st.count, 700u);
  EXPECT_LT(st.count, 1400u);
  EXPECT_EQ(st.forced, 0u);
  const double avg = static_cast<double>(st.total_stolen_ns) /
                     static_cast<double>(st.count);
  EXPECT_GT(avg, 5000.0);
  EXPECT_LT(avg, 20000.0);
}

TEST(Smi, ForceInjectsExactDuration) {
  Machine m(tiny(), 3);
  sim::Nanos frozen_at = -1;
  sim::Nanos unfrozen_at = -1;
  m.set_freeze_hooks(Machine::FreezeHooks{
      [&](std::uint32_t cpu) {
        if (cpu == 0) frozen_at = m.engine().now();
      },
      [&](std::uint32_t cpu, sim::Nanos) {
        if (cpu == 0) unfrozen_at = m.engine().now();
      }});
  m.engine().schedule_at(100, [&] { m.smi().force(sim::micros(7)); });
  m.engine().run_all();
  EXPECT_EQ(frozen_at, 100);
  EXPECT_EQ(unfrozen_at, 100 + sim::micros(7));
}

TEST(Machine, OverlappingFreezesExtendTheWindow) {
  Machine m(tiny(), 3);
  sim::Nanos unfrozen_at = -1;
  int freezes = 0;
  m.set_freeze_hooks(Machine::FreezeHooks{
      [&](std::uint32_t cpu) {
        if (cpu == 0) ++freezes;
      },
      [&](std::uint32_t cpu, sim::Nanos) {
        if (cpu == 0) unfrozen_at = m.engine().now();
      }});
  m.engine().schedule_at(100, [&] { m.freeze_all(1000); });
  m.engine().schedule_at(600, [&] { m.freeze_all(1000); });
  m.engine().run_all();
  EXPECT_EQ(freezes, 1);  // second SMI extends, doesn't re-freeze
  EXPECT_EQ(unfrozen_at, 1600);
}

TEST(Machine, TimersKeepCountingAcrossFreeze) {
  // The TSC advances during an SMI — that is the whole "missing time"
  // problem (section 3.6).
  Machine m(tiny(), 3);
  m.engine().schedule_at(100, [&] { m.freeze_all(sim::micros(50)); });
  m.engine().run_all();
  EXPECT_EQ(m.cpu(0).tsc().wall_ns(), m.engine().now());
}

// The schedulers' release slop is one tick in either mode, so a negative
// tick is refused in both; Apic::quantize divides by the tick, so zero is
// refused unless deadlines are programmed in TSC cycles.
TEST(Machine, RejectsNegativeApicTickAndZeroWithoutTscDeadline) {
  for (const bool tsc_deadline : {false, true}) {
    MachineSpec spec = tiny();
    spec.timer.tsc_deadline = tsc_deadline;
    spec.timer.apic_tick_ns = -20;
    EXPECT_THROW(Machine m(spec), std::invalid_argument) << tsc_deadline;
  }
  MachineSpec spec = tiny();
  spec.timer.apic_tick_ns = 0;
  EXPECT_THROW(Machine m(spec), std::invalid_argument);
  spec.timer.tsc_deadline = true;
  Machine m(spec);
  m.cpu(0).apic().arm_oneshot(100);
  m.engine().run_all();
  EXPECT_EQ(m.cpu(0).apic().fires(), 1u);
}

// A NaN spread passes jittered()'s `rel_std <= 0` test and used to reach an
// int64 cast; negative and infinite spreads are refused too.  Zero turns
// jitter off and stays valid.
TEST(Machine, RejectsNegativeOrNonFiniteJitter) {
  for (const double rel_std :
       {-0.01, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    MachineSpec spec = tiny();
    spec.cost.jitter_rel_std = rel_std;
    EXPECT_THROW(Machine m(spec), std::invalid_argument) << rel_std;
  }
  MachineSpec spec = tiny();
  spec.cost.jitter_rel_std = 0.0;
  EXPECT_NO_THROW(Machine m(spec));
}

// ---------- Gpio + IoApic + Device ----------

TEST(Gpio, RecordsOnlyChangedPins) {
  sim::Trace trace;
  trace.enable();
  Gpio gpio(trace);
  gpio.outb(10, 0, 0b0000'0101);
  gpio.outb(20, 0, 0b0000'0100);  // pin 0 falls
  auto pins = trace.filter(sim::TraceKind::kPin);
  ASSERT_EQ(pins.size(), 3u);
  EXPECT_EQ(pins[0].value, (0 << 1) | 1);
  EXPECT_EQ(pins[1].value, (2 << 1) | 1);
  EXPECT_EQ(pins[2].value, (0 << 1) | 0);
}

TEST(Gpio, SetPinPreservesLatch) {
  sim::Trace trace;
  Gpio gpio(trace);
  gpio.set_pin(0, 0, 3, true);
  gpio.set_pin(0, 0, 5, true);
  EXPECT_EQ(gpio.latch(), 0b0010'1000);
  gpio.set_pin(0, 0, 3, false);
  EXPECT_EQ(gpio.latch(), 0b0010'0000);
}

TEST(IoApic, RoutesToProgrammedCpu) {
  Machine m(tiny(), 3);
  std::vector<std::pair<std::uint32_t, Vector>> got;
  for (std::uint32_t c = 0; c < 2; ++c) {
    m.cpu(c).set_deliver_hook([&got, c](Vector v) { got.emplace_back(c, v); });
  }
  m.ioapic().route(0x40, 1);
  m.ioapic().assert_irq(0x40);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 1u);
}

TEST(Device, PeriodicArrivalsAtConfiguredRate) {
  Machine m(tiny(), 3);
  int count = 0;
  m.cpu(0).set_deliver_hook([&](Vector) { ++count; });
  auto& dev = m.add_device(0x41, Device::Arrival::kPeriodic, sim::micros(100));
  dev.start();
  m.engine().run_until(sim::millis(10));
  EXPECT_EQ(count, 100);
}

TEST(Device, StopHaltsInterrupts) {
  Machine m(tiny(), 3);
  int count = 0;
  m.cpu(0).set_deliver_hook([&](Vector) { ++count; });
  auto& dev = m.add_device(0x41, Device::Arrival::kPeriodic, sim::micros(100));
  dev.start();
  m.engine().run_until(sim::millis(1));
  dev.stop();
  const int at_stop = count;
  m.engine().run_until(sim::millis(10));
  EXPECT_LE(count, at_stop + 1);
}

TEST(Device, PoissonArrivalsApproximateRate) {
  Machine m(tiny(), 3);
  int count = 0;
  m.cpu(0).set_deliver_hook([&](Vector) { ++count; });
  auto& dev = m.add_device(0x42, Device::Arrival::kPoisson, sim::micros(50));
  dev.start();
  m.engine().run_until(sim::millis(50));
  EXPECT_GT(count, 700);   // expect ~1000
  EXPECT_LT(count, 1300);
}

TEST(Machine, IpiDeliveredAfterLatency) {
  Machine m(tiny(), 3);
  sim::Nanos at = -1;
  m.cpu(1).set_deliver_hook([&](Vector v) {
    if (v == kKickVector) at = m.engine().now();
  });
  m.engine().schedule_at(100, [&] { m.send_ipi(0, 1, kKickVector); });
  m.engine().run_all();
  EXPECT_EQ(at, 100 + tiny().timer.ipi_latency_ns);
}

TEST(Machine, BootSkewWithinSpec) {
  Machine m(MachineSpec::phi(), 9);
  for (std::uint32_t c = 1; c < m.num_cpus(); ++c) {
    EXPECT_GE(m.cpu(c).tsc().true_offset_ns(), 0);
    EXPECT_LE(m.cpu(c).tsc().true_offset_ns(),
              MachineSpec::phi().skew.boot_skew_max_ns);
  }
  EXPECT_EQ(m.cpu(0).tsc().true_offset_ns(), 0);
}

}  // namespace
}  // namespace hrt::hw
