#include "group/group_admission.hpp"

#include <stdexcept>
#include <utility>

#include "nautilus/kernel.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::grp {

namespace {

/// Append an extra completion hook to an action.
nk::Action with_fx(nk::Action a, std::function<void(nk::ThreadCtx&)> extra) {
  auto prev = std::move(a.on_complete);
  a.on_complete = [prev = std::move(prev),
                   extra = std::move(extra)](nk::ThreadCtx& ctx) {
    if (prev) prev(ctx);
    extra(ctx);
  };
  return a;
}

rt::LocalScheduler& local_sched(nk::ThreadCtx& ctx) {
  // The group layer is built for the hard real-time scheduler, as
  // nk_group_sched_change_constraints is part of that scheduler's API.
  return *ctx.kernel.local_scheduler(ctx.self.cpu);
}

constexpr std::uint32_t kBarrierA = 0;
constexpr std::uint32_t kBarrierB = 1;
constexpr std::uint32_t kBarrierFail = 2;
constexpr std::uint32_t kBarrierFinal = 3;

}  // namespace

GroupChangeConstraints::GroupChangeConstraints(ThreadGroup& group,
                                               rt::Constraints constraints,
                                               bool join_first)
    : group_(group),
      constraints_(constraints),
      step_(join_first ? Step::kJoin : Step::kElect) {
  if (!constraints.is_realtime()) {
    throw std::invalid_argument(
        "GroupChangeConstraints: constraints must be periodic or sporadic");
  }
}

nk::Action GroupChangeConstraints::barrier_step(GroupBarrier& b,
                                                Step next_step,
                                                bool record_order) {
  switch (barrier_phase_) {
    case 0:
      barrier_phase_ = 1;
      return b.scan_action();
    case 1:
      barrier_phase_ = 2;
      return b.arrive_action();
    case 2:
      barrier_phase_ = 3;
      return b.wait_action();
    default:
      barrier_phase_ = 0;
      step_ = next_step;
      if (record_order) {
        return b.depart_action([this](nk::ThreadCtx& ctx, int order) {
          release_order_ = order;
          timing_.barrier_done = ctx.wall_now;
        });
      }
      return b.depart_action();
  }
}

nk::Action GroupChangeConstraints::next(nk::ThreadCtx& ctx) {
  if (timing_.start < 0) timing_.start = ctx.wall_now;
  for (;;) {
    switch (step_) {
      case Step::kJoin: {
        step_ = Step::kElect;
        return group_.join_action([this](nk::ThreadCtx& c) {
          timing_.join_done = c.wall_now;
        });
      }
      case Step::kElect: {
        step_ = Step::kLeaderSetup;
        return with_fx(group_.elect_action(), [this](nk::ThreadCtx& c) {
          timing_.election_done = c.wall_now;
        });
      }
      case Step::kLeaderSetup: {
        step_ = Step::kBarrierA;
        if (group_.leader() == &ctx.self) {
          // lock group; attach constraints to group.
          return nk::Action::atomic(
              &group_.lock_line(), group_.departure_delta(),
              [this](nk::ThreadCtx& c) {
                group_.lock(&c.self);
                group_.attach_constraints(constraints_);
              });
        }
        continue;
      }
      case Step::kBarrierA:
        return barrier_step(group_.barrier(kBarrierA), Step::kReserve,
                            /*record_order=*/false);
      case Step::kReserve: {
        step_ = Step::kReduceErrors;
        const auto& spec = group_.kernel().machine().spec();
        const sim::Nanos adm_ns =
            spec.freq.cycles_to_ns_ceil(spec.cost.admission_control);
        // Local admission control, run in the context of the (still
        // aperiodic) requesting thread.  The group's attached constraints
        // are what every member requests.
        return nk::Action::compute(adm_ns, [this](nk::ThreadCtx& c) {
          reserved_ok_ = local_sched(c).reserve_constraints(
              c.self, group_.constraints());
          if (!reserved_ok_) group_.add_failure();
        });
      }
      case Step::kReduceErrors: {
        step_ = Step::kBarrierB;
        return group_.reduce_add_action(reserved_ok_ ? 0 : 1);
      }
      case Step::kBarrierB:
        return barrier_step(group_.barrier(kBarrierB), Step::kCheckErrors,
                            /*record_order=*/false);
      case Step::kCheckErrors: {
        timing_.admission_done = ctx.wall_now;
        step_ = group_.reduction_value() > 0 ? Step::kCancel
                                             : Step::kFinalBarrier;
        continue;
      }
      case Step::kCancel: {
        step_ = Step::kBarrierFail;
        if (reserved_ok_) {
          // "readmit myself using default constraints": release the
          // reservation; the thread never left the aperiodic class.
          return nk::Action::compute(
              group_.departure_delta(), [](nk::ThreadCtx& c) {
                local_sched(c).cancel_reservation(c.self);
              });
        }
        continue;
      }
      case Step::kBarrierFail: {
        nk::Action a = barrier_step(group_.barrier(kBarrierFail), Step::kDone,
                                    /*record_order=*/false);
        if (step_ == Step::kDone) {
          // Departure of the failure barrier finishes the protocol.
          a = with_fx(std::move(a), [this](nk::ThreadCtx& c) {
            if (group_.leader() == &c.self) group_.unlock();
            timing_.total_done = c.wall_now;
            success_ = false;
            done_ = true;
          });
        }
        return a;
      }
      case Step::kFinalBarrier:
        return barrier_step(group_.barrier(kBarrierFinal), Step::kCommit,
                            /*record_order=*/true);
      case Step::kCommit: {
        step_ = Step::kDone;
        // Phase correction (section 4.4): the ith thread released from the
        // final barrier gets phi_i = phi + (n - i) * delta, compensating the
        // serialized barrier departure so that first arrivals align.
        rt::Constraints c = group_.constraints();
        if (phase_correction_ && release_order_ >= 0) {
          const auto n = static_cast<sim::Nanos>(group_.expected());
          c.phase += (n - 1 - release_order_) * group_.departure_delta();
        }
        return nk::Action::change_constraints(
            c, [this, c](nk::ThreadCtx& cx) {
              success_ = cx.last_admit_ok;
              if (group_.leader() == &cx.self) {
                group_.unlock();
                // Auto-derived group SLO (docs/OBSERVABILITY.md): the leader
                // of a successful commit registers a burn-rate spec for the
                // whole group from the constraints it just admitted.
                if (success_ && cx.kernel.telemetry() != nullptr) {
                  cx.kernel.telemetry()->derive_group_slo(group_.name(), c);
                }
              }
              timing_.total_done = cx.wall_now;
              done_ = true;
            });
      }
      case Step::kDone:
        throw std::logic_error("GroupChangeConstraints: next() after done");
    }
  }
}

GroupAdmitThenBehavior::GroupAdmitThenBehavior(
    ThreadGroup& group, rt::Constraints constraints,
    std::unique_ptr<nk::Behavior> inner, bool join_first)
    : protocol_(group, constraints, join_first), inner_(std::move(inner)) {}

nk::Action GroupAdmitThenBehavior::next(nk::ThreadCtx& ctx) {
  if (!protocol_.done()) {
    return protocol_.next(ctx);
  }
  if (!protocol_.succeeded()) {
    return nk::Action::exit();
  }
  return inner_->next(ctx);
}

}  // namespace hrt::grp
