// Tests for the extension modules: the cyclic-executive scheduler (section 8
// future work, running on the simulated machine) beside the RT scheduler in
// one kernel, and trace export and sim::Trace's per-CPU record positions.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "rt/ce_scheduler.hpp"
#include "rt/system.hpp"
#include "sim/rng.hpp"
#include "sim/trace_export.hpp"

namespace hrt {
namespace {

System::Options quiet(std::uint32_t cpus = 4) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.spec.smi.enabled = false;
  return o;
}

// ---------- CyclicExecutiveScheduler ----------

struct CeFixture : ::testing::Test {
  void build(std::vector<rt::PeriodicTask> tasks) {
    tasks_ = std::move(tasks);
    auto ce = rt::CyclicExecutiveBuilder::build(tasks_);
    ASSERT_TRUE(ce.has_value());
    hw::MachineSpec spec = hw::MachineSpec::phi_small(2);
    spec.smi.enabled = false;
    machine_ = std::make_unique<hw::Machine>(spec, 42);
    nk::Kernel::Options ko;
    ko.scheduler_factory =
        rt::CyclicExecutiveScheduler::factory(*ce, tasks_);
    kernel_ = std::make_unique<nk::Kernel>(*machine_, std::move(ko));
    kernel_->boot();
  }

  nk::Thread* claim_slot(std::size_t i, sim::Nanos chunk = sim::micros(10)) {
    auto b = std::make_unique<nk::FnBehavior>(
        [c = rt::Constraints::periodic(0, tasks_[i].period, tasks_[i].slice),
         chunk](nk::ThreadCtx&, std::uint64_t step) {
          if (step == 0) return nk::Action::change_constraints(c);
          return nk::Action::compute(chunk);
        });
    return kernel_->create_thread("slot" + std::to_string(i), std::move(b),
                                  1);
  }

  rt::CyclicExecutiveScheduler& sched() {
    return static_cast<rt::CyclicExecutiveScheduler&>(kernel_->scheduler(1));
  }

  std::vector<rt::PeriodicTask> tasks_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<nk::Kernel> kernel_;
};

TEST_F(CeFixture, ActivatesWhenAllSlotsClaimed) {
  build({{sim::micros(100), sim::micros(30), 0},
         {sim::micros(200), sim::micros(50), 0}});
  nk::Thread* a = claim_slot(0);
  machine_->engine().run_until(sim::millis(1));
  EXPECT_TRUE(a->last_admit_ok);
  EXPECT_FALSE(sched().active());  // one slot still open
  claim_slot(1);
  machine_->engine().run_until(sim::millis(2));
  EXPECT_TRUE(sched().active());
  EXPECT_EQ(sched().epoch() % sim::micros(200), 0);  // hyperperiod aligned
}

TEST_F(CeFixture, SlotsReceiveTheirStaticShares) {
  build({{sim::micros(100), sim::micros(30), 0},
         {sim::micros(200), sim::micros(50), 0}});
  nk::Thread* a = claim_slot(0);
  nk::Thread* b = claim_slot(1);
  machine_->engine().run_until(sim::millis(52));
  kernel_->executor(1).sync_run_span();
  // ~50 ms of active executive: slot0 30%, slot1 25%.
  EXPECT_NEAR(static_cast<double>(a->total_cpu_ns), 15e6, 1.2e6);
  EXPECT_NEAR(static_cast<double>(b->total_cpu_ns), 12.5e6, 1.2e6);
}

TEST_F(CeFixture, NonMatchingConstraintRejected) {
  build({{sim::micros(100), sim::micros(30), 0}});
  auto bb = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              0, sim::micros(100), sim::micros(40)));  // no such slot
        }
        return nk::Action::exit();
      });
  nk::Thread* t = kernel_->create_thread("bad", std::move(bb), 1);
  machine_->engine().run_until(sim::millis(1));
  EXPECT_FALSE(t->last_admit_ok);
}

TEST_F(CeFixture, DuplicateClaimRejected) {
  build({{sim::micros(100), sim::micros(30), 0},
         {sim::micros(200), sim::micros(50), 0}});
  nk::Thread* a = claim_slot(0);
  machine_->engine().run_until(sim::millis(1));
  nk::Thread* dup = claim_slot(0);
  machine_->engine().run_until(sim::millis(2));
  EXPECT_TRUE(a->last_admit_ok);
  EXPECT_FALSE(dup->last_admit_ok);
  EXPECT_NEAR(sched().admitted_utilization(), 0.3, 1e-9);
}

TEST_F(CeFixture, AperiodicThreadsFillIdleSegments) {
  build({{sim::micros(100), sim::micros(30), 0}});
  claim_slot(0);
  nk::Thread* bg = kernel_->create_thread(
      "bg", std::make_unique<nk::BusyLoopBehavior>(sim::micros(20)), 1);
  machine_->engine().run_until(sim::millis(50));
  kernel_->executor(1).sync_run_span();
  // Slot takes 30%; background gets most of the rest.
  EXPECT_GT(bg->total_cpu_ns, sim::millis(25));
}

TEST_F(CeFixture, ExitedSlotThreadLeavesIdleSegment) {
  build({{sim::micros(100), sim::micros(30), 0}});
  auto b = std::make_unique<nk::FnBehavior>(
      [this](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              0, tasks_[0].period, tasks_[0].slice));
        }
        if (step < 10) return nk::Action::compute(sim::micros(10));
        return nk::Action::exit();
      });
  kernel_->create_thread("short", std::move(b), 1);
  machine_->engine().run_until(sim::millis(20));
  EXPECT_NEAR(sched().admitted_utilization(), 0.0, 1e-9);
}

// ---------- Kernel::local_scheduler ----------

// A mixed-policy kernel: the accessor is null on the cyclic-executive CPU,
// so an RT migration toward it is refused with nothing held anywhere.
TEST(Kernel, LocalSchedulerAccessor) {
  const std::vector<rt::PeriodicTask> tasks{
      {sim::micros(100), sim::micros(30), 0}};
  auto ce = rt::CyclicExecutiveBuilder::build(tasks);
  ASSERT_TRUE(ce.has_value());
  hw::MachineSpec spec = hw::MachineSpec::phi_small(3);
  spec.smi.enabled = false;
  hw::Machine machine(spec, 42);
  global::UtilizationLedger ledger(3, 0.79);
  nk::Kernel::Options ko;
  ko.placement_ledger = &ledger;
  ko.scheduler_factory =
      [ce_factory = rt::CyclicExecutiveScheduler::factory(*ce, tasks),
       rt_factory = rt::make_scheduler_factory(rt::LocalScheduler::Config{})](
          nk::Kernel& k, std::uint32_t cpu) {
        return cpu == 2 ? ce_factory(k, cpu) : rt_factory(k, cpu);
      };
  nk::Kernel k(machine, std::move(ko));
  k.boot();
  EXPECT_EQ(k.local_scheduler(2), nullptr);
  EXPECT_EQ(k.local_scheduler(1), &k.scheduler(1));

  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              0, sim::millis(1), sim::micros(300)));
        }
        return nk::Action::compute(sim::micros(50));
      });
  nk::Thread* t = k.create_thread("rt", std::move(b), 1);
  machine.engine().run_until(sim::millis(5));
  ASSERT_TRUE(t->last_admit_ok);
  ASSERT_EQ(t->constraints.cls, rt::ConstraintClass::kPeriodic);

  rt::LocalScheduler& from = *k.local_scheduler(1);
  EXPECT_FALSE(from.request_migration(*t, 2));
  EXPECT_EQ(t->migrate_to, nk::kNoMigrateTarget);
  EXPECT_FALSE(from.has_reservation(*t));
  EXPECT_EQ(from.stats().migrations_requested, 0u);
  auto& target = static_cast<rt::CyclicExecutiveScheduler&>(k.scheduler(2));
  EXPECT_EQ(target.slots_claimed(), 0u);
  EXPECT_NEAR(target.admitted_utilization(), 0.0, 1e-9);
  machine.engine().run_until(sim::millis(10));
  EXPECT_EQ(t->cpu, 1u);

  System sys(quiet());
  sys.boot();
  for (std::uint32_t c = 0; c < sys.kernel().num_cpus(); ++c) {
    rt::LocalScheduler* ls = sys.kernel().local_scheduler(c);
    ASSERT_NE(ls, nullptr);
    EXPECT_EQ(ls, &sys.kernel().scheduler(c));
    EXPECT_EQ(ls, &sys.sched(c));
  }
}

// ---------- Trace export ----------

TEST(TraceExport, CsvContainsAllRecords) {
  sim::Trace trace;
  trace.enable();
  trace.record(100, 1, sim::TraceKind::kSwitch, 7);
  trace.record(200, 2, sim::TraceKind::kPin, 3);
  std::ostringstream os;
  sim::export_csv(trace, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("time_ns,cpu,kind,value"), std::string::npos);
  EXPECT_NE(out.find("100,1,switch,7"), std::string::npos);
  EXPECT_NE(out.find("200,2,pin,3"), std::string::npos);
}

TEST(TraceExport, VcdHasHeaderAndTransitions) {
  sim::Trace trace;
  trace.enable();
  // pin 0 high at t=10, low at t=50; pin 2 high at t=50.
  trace.record(10, 0, sim::TraceKind::kPin, (0 << 1) | 1);
  trace.record(50, 0, sim::TraceKind::kPin, (0 << 1) | 0);
  trace.record(50, 0, sim::TraceKind::kPin, (2 << 1) | 1);
  trace.record(60, 1, sim::TraceKind::kPin, (1 << 1) | 1);  // other cpu
  std::ostringstream os;
  sim::export_pins_vcd(trace, 0, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! pin0 $end"), std::string::npos);
  EXPECT_NE(out.find("#10\n1!"), std::string::npos);
  EXPECT_NE(out.find("#50\n0!\n1#"), std::string::npos);
  EXPECT_EQ(out.find("#60"), std::string::npos);  // cpu 1 excluded
}

TEST(Trace, PerCpuPositionsMatchFullScan) {
  // positions(cpu) and filter(kind, cpu) walk per-CPU position lists; they
  // must agree with a scan of every record.  Covers interleaved CPUs, a CPU
  // that never records (2), CPUs past every recorded one, recording while
  // disabled, and clear().
  sim::Trace trace;
  auto check = [&] {
    const auto& all = trace.records();
    for (const std::uint32_t cpu : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 1000u}) {
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < all.size(); ++i) {
        if (all[i].cpu == cpu) want.push_back(i);
      }
      const auto got = trace.positions(cpu);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << "cpu " << cpu;
      for (int k = 0; k <= static_cast<int>(sim::TraceKind::kCustom); ++k) {
        const auto kind = static_cast<sim::TraceKind>(k);
        std::vector<std::int64_t> ref;
        for (const sim::TraceRecord& r : all) {
          if (r.kind == kind && r.cpu == cpu) ref.push_back(r.value);
        }
        std::vector<std::int64_t> filtered;
        for (const sim::TraceRecord& r : trace.filter(kind, cpu)) {
          EXPECT_EQ(r.kind, kind);
          EXPECT_EQ(r.cpu, cpu);
          filtered.push_back(r.value);
        }
        EXPECT_EQ(filtered, ref) << "cpu " << cpu << " kind " << k;
      }
    }
  };
  auto fill = [&](std::uint64_t seed) {
    sim::Rng rng(seed);
    constexpr std::uint32_t kCpus[] = {0, 1, 3, 4, 5};
    for (std::int64_t i = 0; i < 600; ++i) {
      if (i == 300) trace.disable();
      if (i == 350) trace.enable();
      const std::uint32_t cpu = kCpus[rng.uniform(0, 4)];
      const auto kind = static_cast<sim::TraceKind>(
          rng.uniform(0, static_cast<int>(sim::TraceKind::kCustom)));
      trace.record(i, cpu, kind, i);
    }
  };

  trace.record(1, 3, sim::TraceKind::kPin, 1);  // disabled: dropped
  EXPECT_TRUE(trace.records().empty());
  EXPECT_TRUE(trace.positions(3).empty());
  trace.enable();
  fill(11);
  EXPECT_EQ(trace.records().size(), 550u);
  check();
  trace.clear();
  EXPECT_TRUE(trace.records().empty());
  for (const std::uint32_t cpu : {0u, 3u, 5u}) {
    EXPECT_TRUE(trace.positions(cpu).empty());
  }
  fill(12);
  check();
}

TEST(TraceExport, KindNamesStable) {
  EXPECT_STREQ(sim::trace_kind_name(sim::TraceKind::kIrqEnter), "irq_enter");
  EXPECT_STREQ(sim::trace_kind_name(sim::TraceKind::kSchedPass),
               "sched_pass");
}

}  // namespace
}  // namespace hrt
