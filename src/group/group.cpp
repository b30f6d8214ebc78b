#include "group/group.hpp"

#include <algorithm>
#include <string>

#include "audit/auditor.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::grp {

namespace {
sim::Nanos atomic_ns(nk::Kernel& k) {
  const auto& spec = k.machine().spec();
  return spec.freq.cycles_to_ns_ceil(spec.cost.atomic_rmw);
}
sim::Nanos transfer_ns(nk::Kernel& k) {
  const auto& spec = k.machine().spec();
  return spec.freq.cycles_to_ns_ceil(spec.cost.cacheline_transfer);
}
}  // namespace

GroupBarrier::GroupBarrier(nk::Kernel& kernel, std::uint32_t expected)
    : kernel_(kernel),
      expected_(expected),
      flag_(kernel),
      atomic_ns_(atomic_ns(kernel)),
      transfer_ns_(transfer_ns(kernel)) {}

nk::Action GroupBarrier::scan_action() {
  // The "simple scheme" of section 4.3: each participant does an O(n) scan
  // of the member table before arriving, which is what makes every group
  // collective's per-thread cost grow linearly with group size (Figure 10).
  // The scan is local work, so it runs in parallel across members.
  const auto& spec = kernel_.machine().spec();
  const sim::Nanos scan = spec.freq.cycles_to_ns_ceil(
      spec.cost.group_scan_per_member * static_cast<sim::Cycles>(expected_));
  return nk::Action::compute(scan);
}

nk::Action GroupBarrier::arrive_action() {
  return nk::Action::atomic(&line_, atomic_ns_, [this](nk::ThreadCtx& ctx) {
    const bool released = ++arrivals_ == expected_;
    if (released) {
      flag_.set();
    }
    if (auto* tel = kernel_.telemetry()) {
      const auto tid = static_cast<std::uint32_t>(ctx.self.id);
      const auto n = static_cast<std::int64_t>(arrivals_);
      tel->recorder().record(ctx.self.cpu, telemetry::EventKind::kBarrierArrive,
                             ctx.wall_now, tid, n);
      if (released) {
        tel->recorder().record(ctx.self.cpu,
                               telemetry::EventKind::kBarrierRelease,
                               ctx.wall_now, tid, n);
      }
    }
    audit::Auditor* aud = kernel_.auditor();
    if (aud != nullptr && aud->enabled()) {
      aud->count_check();
      if (arrivals_ > expected_) {
        aud->record(audit::Invariant::kGroup, ctx.self.cpu, ctx.wall_now,
                    "barrier arrivals " + std::to_string(arrivals_) +
                        " exceed expected " + std::to_string(expected_));
      }
    }
  });
}

nk::Action GroupBarrier::wait_action() {
  return nk::Action::spin_until(&flag_);
}

nk::Action GroupBarrier::depart_action(
    std::function<void(nk::ThreadCtx&, int)> fx) {
  return nk::Action::atomic(
      &line_, transfer_ns_, [this, fx = std::move(fx)](nk::ThreadCtx& ctx) {
        const int order = static_cast<int>(departures_++);
        audit::Auditor* aud = kernel_.auditor();
        if (aud != nullptr && aud->enabled()) {
          aud->count_check();
          if (departures_ > arrivals_) {
            aud->record(audit::Invariant::kGroup, ctx.self.cpu, ctx.wall_now,
                        "barrier departures " + std::to_string(departures_) +
                            " exceed arrivals " + std::to_string(arrivals_));
          }
        }
        if (fx) fx(ctx, order);
      });
}

ThreadGroup::ThreadGroup(nk::Kernel& kernel, std::string name,
                         std::uint32_t expected_members)
    : kernel_(kernel), name_(std::move(name)), expected_(expected_members) {}

nk::Action ThreadGroup::join_action(std::function<void(nk::ThreadCtx&)> fx) {
  // Join takes the group lock's line plus a list insertion: a few transfers.
  const sim::Nanos cost = 3 * transfer_ns(kernel_);
  return nk::Action::atomic(&join_line_, cost,
                            [this, fx = std::move(fx)](nk::ThreadCtx& ctx) {
                              members_.push_back(&ctx.self);
                              if (fx) fx(ctx);
                            });
}

nk::Action ThreadGroup::leave_action() {
  const sim::Nanos cost = 3 * transfer_ns(kernel_);
  return nk::Action::atomic(&join_line_, cost, [this](nk::ThreadCtx& ctx) {
    auto it = std::find(members_.begin(), members_.end(), &ctx.self);
    if (it != members_.end()) members_.erase(it);
  });
}

GroupBarrier& ThreadGroup::barrier(std::uint32_t key) {
  for (auto& [k, b] : barriers_) {
    if (k == key) return *b;
  }
  barriers_.emplace_back(
      key, std::make_unique<GroupBarrier>(kernel_, expected_));
  return *barriers_.back().second;
}

nk::Action ThreadGroup::reduce_add_action(std::int64_t value) {
  // O(n) local scan (simple linear reduction scheme) followed by the
  // commutative add; contention on the accumulator line is negligible next
  // to the scan, so the scan runs as parallel compute.
  const auto& spec = kernel_.machine().spec();
  const sim::Nanos scan = spec.freq.cycles_to_ns_ceil(
      spec.cost.group_scan_per_member * static_cast<sim::Cycles>(expected_));
  return nk::Action::compute(scan + atomic_ns(kernel_),
                             [this, value](nk::ThreadCtx&) {
                               reduction_ += value;
                             });
}

nk::Action ThreadGroup::elect_action() {
  // Simple linear election: scan the member table (O(n), parallel local
  // work), then compare-and-swap the leader slot; first CAS wins.
  const auto& spec = kernel_.machine().spec();
  const sim::Nanos scan = spec.freq.cycles_to_ns_ceil(
      spec.cost.group_scan_per_member * static_cast<sim::Cycles>(expected_) /
      2);
  return nk::Action::compute(atomic_ns(kernel_) + scan,
                             [this](nk::ThreadCtx& ctx) {
                               if (leader_ == nullptr) leader_ = &ctx.self;
                             });
}

sim::Nanos ThreadGroup::departure_delta() const {
  return transfer_ns(kernel_);
}

ThreadGroup* GroupRegistry::create(const std::string& name,
                                   std::uint32_t expected) {
  if (find(name) != nullptr) return nullptr;
  groups_.push_back(std::make_unique<ThreadGroup>(kernel_, name, expected));
  return groups_.back().get();
}

ThreadGroup* GroupRegistry::find(const std::string& name) const {
  for (const auto& g : groups_) {
    if (g->name() == name) return g.get();
  }
  return nullptr;
}

ThreadGroup* GroupRegistry::group_of(const nk::Thread* t) const {
  for (const auto& g : groups_) {
    for (nk::Thread* m : g->members()) {
      if (m == t) return g.get();
    }
  }
  return nullptr;
}

bool GroupRegistry::destroy(const std::string& name) {
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if ((*it)->name() == name) {
      groups_.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace hrt::grp
