// Thread groups (section 4.2).
//
// "Threads can create, join, leave, and destroy named groups.  A group can
// also have state associated with it, for example the timing constraints
// that all members of a group wish to share.  Group admission control also
// builds on other basic group features, namely distributed election,
// barrier, reduction, and broadcast, all scoped to the group."
//
// All coordination primitives are built from serialized shared-memory
// operations (SeqResource) and spin flags (WaitFlag), so their cost grows
// linearly with member count — the simple scheme the paper measures in
// Figure 10.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nautilus/action.hpp"
#include "nautilus/kernel.hpp"
#include "nautilus/sync.hpp"
#include "rt/constraints.hpp"

namespace hrt::grp {

/// Single-use spin barrier with serialized departure.
//
// Arrival is an atomic fetch-add on a shared line; everyone but the last
// arrival spins; departure re-reads the line, which serializes the spinners'
// cache misses and produces the per-thread departure delay delta that phase
// correction compensates (section 4.4).
class GroupBarrier {
 public:
  GroupBarrier(nk::Kernel& kernel, std::uint32_t expected);

  /// Step 0: the O(n) member-table scan each participant performs (local
  /// work, runs in parallel).
  [[nodiscard]] nk::Action scan_action();
  /// Step 1: arrive.  The last arrival releases the barrier.
  [[nodiscard]] nk::Action arrive_action();
  /// Step 2: spin until released.
  [[nodiscard]] nk::Action wait_action();
  /// Step 3: serialized departure.  `fx(ctx, order)` runs with this
  /// thread's 0-based release order.
  [[nodiscard]] nk::Action depart_action(
      std::function<void(nk::ThreadCtx&, int order)> fx = nullptr);

  [[nodiscard]] std::uint32_t expected() const { return expected_; }
  [[nodiscard]] std::uint32_t arrivals() const { return arrivals_; }
  [[nodiscard]] bool released() const { return flag_.is_set(); }

 private:
  nk::Kernel& kernel_;
  std::uint32_t expected_;
  std::uint32_t arrivals_ = 0;
  std::uint32_t departures_ = 0;
  nk::SeqResource line_;       // the barrier's cache line
  nk::WaitFlag flag_;
  sim::Nanos atomic_ns_;
  sim::Nanos transfer_ns_;
};

class ThreadGroup {
 public:
  ThreadGroup(nk::Kernel& kernel, std::string name,
              std::uint32_t expected_members);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t expected() const { return expected_; }
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(members_.size());
  }
  [[nodiscard]] const std::vector<nk::Thread*>& members() const {
    return members_;
  }
  [[nodiscard]] nk::Kernel& kernel() { return kernel_; }

  /// Serialized join: the emitting thread becomes a member on completion.
  [[nodiscard]] nk::Action join_action(
      std::function<void(nk::ThreadCtx&)> fx = nullptr);
  /// Serialized leave.
  [[nodiscard]] nk::Action leave_action();

  /// Numbered barriers: every member asking for the same key gets the same
  /// instance (created on first use, expecting all members).
  GroupBarrier& barrier(std::uint32_t key);

  /// Group-scoped reduction helper: serialized add into an accumulator.
  [[nodiscard]] nk::Action reduce_add_action(std::int64_t value);
  [[nodiscard]] std::int64_t reduction_value() const { return reduction_; }

  /// Broadcast: leader publishes a value; members read it (no cost beyond
  /// the barrier that usually precedes the read).
  void publish(std::int64_t v) { broadcast_ = v; }
  [[nodiscard]] std::int64_t published() const { return broadcast_; }

  /// Leader election state (used by group admission).
  [[nodiscard]] nk::Action elect_action();
  [[nodiscard]] nk::Thread* leader() const { return leader_; }

  /// Group lock + attached constraints (shared state).
  void lock(nk::Thread* owner) { lock_owner_ = owner; }
  void unlock() { lock_owner_ = nullptr; }
  [[nodiscard]] bool locked() const { return lock_owner_ != nullptr; }
  void attach_constraints(const rt::Constraints& c) { constraints_ = c; }
  [[nodiscard]] const rt::Constraints& constraints() const {
    return constraints_;
  }

  /// Admission failure accumulator (reduction target of Algorithm 1).
  void add_failure() { ++failures_; }
  [[nodiscard]] std::uint32_t failures() const { return failures_; }

  /// The calibrated per-thread barrier departure delay (delta of section
  /// 4.4): one serialized cache-line transfer.
  [[nodiscard]] sim::Nanos departure_delta() const;

  /// Group-internal shared line (exposed for the lock actions).
  nk::SeqResource& lock_line() { return lock_line_; }

 private:
  nk::Kernel& kernel_;
  std::string name_;
  std::uint32_t expected_;
  std::vector<nk::Thread*> members_;
  std::vector<std::pair<std::uint32_t, std::unique_ptr<GroupBarrier>>>
      barriers_;

  nk::SeqResource join_line_;
  nk::SeqResource lock_line_;

  nk::Thread* leader_ = nullptr;
  nk::Thread* lock_owner_ = nullptr;
  rt::Constraints constraints_;
  std::int64_t reduction_ = 0;
  std::int64_t broadcast_ = 0;
  std::uint32_t failures_ = 0;
};

/// Named-group registry ("threads can create, join, leave, and destroy
/// named groups").
class GroupRegistry {
 public:
  explicit GroupRegistry(nk::Kernel& kernel) : kernel_(kernel) {}

  ThreadGroup* create(const std::string& name, std::uint32_t expected);
  [[nodiscard]] ThreadGroup* find(const std::string& name) const;
  /// The group `t` is a member of, or null.  Group members are pinned by
  /// their collectives, so the rebalancer treats them as immovable.
  [[nodiscard]] ThreadGroup* group_of(const nk::Thread* t) const;
  bool destroy(const std::string& name);
  [[nodiscard]] std::size_t count() const { return groups_.size(); }

 private:
  nk::Kernel& kernel_;
  std::vector<std::unique_ptr<ThreadGroup>> groups_;
};

}  // namespace hrt::grp
