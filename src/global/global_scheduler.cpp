#include "global/global_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nautilus/behavior.hpp"
#include "nautilus/kernel.hpp"
#include "nautilus/thread.hpp"
#include "rt/local_scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::global {

namespace {

// Auto-admit attempts after the first rejection before a thread gives up.
constexpr std::uint32_t kAdmitRetries = 3;
// Overflow splitting: cap on pipeline chunks per task.
constexpr std::uint32_t kMaxSplitChunks = 8;

/// The auto-admission wrapper (GlobalScheduler::auto_admit).  State machine:
///   kAdmit -> kCheck -> kRun (admitted)
///                    -> make room + sleep -> kAdmit (rejected, retries left)
///                    -> exit               (rejected, retries exhausted)
class AutoAdmitBehavior final : public nk::Behavior {
 public:
  AutoAdmitBehavior(GlobalScheduler& gs, rt::Constraints c,
                    std::unique_ptr<nk::Behavior> inner)
      : gs_(gs), constraints_(c), inner_(std::move(inner)) {}

  nk::Action next(nk::ThreadCtx& ctx) override {
    switch (phase_) {
      case Phase::kAdmit:
        phase_ = Phase::kCheck;
        return nk::Action::change_constraints(constraints_);
      case Phase::kCheck: {
        if (ctx.last_admit_ok) {
          phase_ = Phase::kRun;
          return run_inner(ctx);
        }
        if (attempts_ >= kAdmitRetries) {
          gs_.note_give_up();
          return nk::Action::exit();
        }
        ++attempts_;
        // Rejected: try to migrate someone out of the way, follow the room
        // if it opened on another CPU (we are still aperiodic, so a parked
        // re-home is legal), and retry after the hand-off had a chance to
        // complete — periodic hand-offs happen at job boundaries, so two
        // periods always covers one.
        const std::uint32_t room =
            gs_.rebalancer().make_room(constraints_, &ctx.self);
        if (room != kInvalidCpu && room != ctx.self.cpu) {
          gs_.rebalancer().relocate_when_parked(&ctx.self, room);
        }
        phase_ = Phase::kAdmit;
        return nk::Action::sleep(retry_delay());
      }
      case Phase::kRun:
        return run_inner(ctx);
    }
    return nk::Action::exit();
  }

  [[nodiscard]] std::string describe() const override {
    return "auto-admit(" + inner_->describe() + ")";
  }

 private:
  enum class Phase : std::uint8_t { kAdmit, kCheck, kRun };

  nk::Action run_inner(nk::ThreadCtx& ctx) {
    nk::Action a = inner_->next(ctx);
    if (a.kind == nk::Action::Kind::kExit) {
      // Our departure frees utilization; let the rebalancer re-level after
      // the exit settles.
      gs_.rebalancer().on_thread_exit(ctx.self.cpu);
    }
    return a;
  }

  [[nodiscard]] sim::Nanos retry_delay() const {
    const sim::Nanos floor = sim::millis(1);
    if (constraints_.cls == rt::ConstraintClass::kPeriodic) {
      return std::max(floor, 2 * constraints_.period);
    }
    return floor;
  }

  GlobalScheduler& gs_;
  rt::Constraints constraints_;
  std::unique_ptr<nk::Behavior> inner_;
  Phase phase_ = Phase::kAdmit;
  std::uint32_t attempts_ = 0;
};

}  // namespace

GlobalScheduler::GlobalScheduler(std::uint32_t num_cpus, double cpu_capacity,
                                 Config cfg)
    : cfg_(cfg),
      ledger_(num_cpus, cpu_capacity),
      engine_(ledger_, cfg),
      rebalancer_(ledger_, engine_, cfg) {
  // A NaN threshold fails `gap < threshold`, so every exit would rebalance.
  if (!(cfg_.rebalance_threshold >= 0.0)) {
    throw std::invalid_argument(
        "global::Config: rebalance_threshold must be >= 0 and not NaN");
  }
  // A negative size makes the sized rebalance task an unsized helper-thread
  // task (nk::Task).
  if (cfg_.rebalance_task_size < 0) {
    throw std::invalid_argument(
        "global::Config: rebalance_task_size must be >= 0");
  }
}

std::unique_ptr<nk::Behavior> GlobalScheduler::auto_admit(
    const rt::Constraints& c, std::unique_ptr<nk::Behavior> inner) {
  return std::make_unique<AutoAdmitBehavior>(*this, c, std::move(inner));
}

SplitPlan GlobalScheduler::plan_split(const rt::Constraints& c,
                                      sim::Nanos min_slice) {
  if (c.cls != rt::ConstraintClass::kPeriodic || !c.well_formed()) {
    return {};
  }
  const rt::PeriodicTask task{c.period, c.slice, c.phase};
  const std::uint32_t n = ledger_.num_cpus();
  std::vector<double> headroom(n);
  for (std::uint32_t i = 0; i < n; ++i) headroom[i] = ledger_.headroom(i);

  // Resilience follow-up (docs/RESILIENCE.md): chunk sizing must respect
  // what each CPU can actually deliver, not just what the ledger says is
  // uncommitted.  The windowed *peak* missing-time fraction is the right
  // degradation here — a split plan is a long-lived commitment, so it must
  // survive the worst recent window, not the average.
  if (kernel_ != nullptr) {
    for (std::uint32_t i = 0; i < n && i < kernel_->num_cpus(); ++i) {
      const rt::LocalScheduler* ls = kernel_->local_scheduler(i);
      if (ls == nullptr) continue;
      headroom[i] -= ls->missing_time().windowed_max_fraction();
      if (headroom[i] < 0.0) headroom[i] = 0.0;
    }
  }

  SplitPlan plan;
  if (engine_.steers_rt()) {
    std::vector<double> steered = headroom;
    for (std::uint32_t i = 0; i < cfg_.interrupt_laden_cpus; ++i) {
      steered[i] = 0.0;
    }
    plan = split_task(task, steered, min_slice, kMaxSplitChunks);
  }
  if (!plan.ok) plan = split_task(task, headroom, min_slice, kMaxSplitChunks);
  if (plan.ok) {
    ++stats_.split_plans;
    stats_.split_chunks += plan.chunks.size();
    if (kernel_ != nullptr && kernel_->telemetry() != nullptr) {
      kernel_->telemetry()->recorder().record(
          plan.chunks.front().cpu, telemetry::EventKind::kSplitPlan,
          kernel_->machine().cpu(0).tsc().wall_ns(), 0,
          static_cast<std::int64_t>(plan.chunks.size()));
    }
  }
  return plan;
}

}  // namespace hrt::global
