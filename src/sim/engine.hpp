// Discrete-event simulation engine.
//
// The engine owns the global "true" timeline of the simulated machine in
// nanoseconds.  Hardware components schedule events (timer expiry, SMI
// assertion, action completion) against it.  Events at the same timestamp
// are ordered by an explicit priority band first (so that, e.g., an SMI
// freeze at time T is applied before a work completion at T), then FIFO.
//
// Implementation: a hierarchical timer wheel.  Events land in one of four
// places:
//
//   * ready run  — the entries of the last drained wheel slot in descending
//     (when, band, seq) order, popped from the back.  A slot's list is LIFO,
//     so when its events were scheduled in order (a lock-stepped gang
//     finishing at one timestamp) the list walk yields the run and no sort
//     happens; any other slot is sorted once: counting-sorted into 16 ns
//     sub-slot buckets, so only each bucket's few entries need comparing.
//   * side heap  — events scheduled into the already-drained window (e.g. at
//     now() from a callback); a small binary heap ordered by (when, band,
//     seq).  Entries carry their sort key inline, so sifts never touch the
//     node pool.  Each pop takes the smaller of the run's and the heap's
//     heads.
//   * wheel      — kNumSlots circular buckets of kSlotNs each (~4 ms span);
//     each bucket is an intrusive doubly-linked list, with an occupancy
//     bitmap for O(1) find-next-bucket.
//   * far heap   — events beyond the wheel horizon; migrated into the wheel
//     in amortized O(log n) as the window advances.
//
// run_until and step share one peek per event: it drops tombstoned heads
// and drains the next wheel slot only when the run and the side heap are
// both empty.
//
// Events live in a pooled free-list arena with generation-tagged slots, so
// EventId validation needs no hash lookup: schedule_at and cancel are O(1)
// amortized.  Cancellation matters — preemption constantly invalidates
// in-flight completion events — so a wheel-resident event is unlinked and
// reclaimed immediately, while run-, heap- and far-resident events are
// tombstoned and reclaimed lazily at pop.  Callbacks use a
// small-buffer-optimized Callback (sim/callback.hpp): no per-event heap
// allocation on the common path.
//
// One engine drives the whole simulated machine on one host thread.  The
// execution order is a pure function of the schedule/cancel sequence, so a
// run is bit-identical for a given seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace hrt::sim {

/// Ordering bands for simultaneous events.  Lower runs first.
enum class EventBand : std::uint8_t {
  kSmi = 0,       // stop-the-world freezes preempt everything
  kHardware = 1,  // timer expiry, interrupt wire assertions
  kDefault = 2,   // completions, software callbacks
  kObserver = 3,  // measurement hooks that must see settled state
};

/// Opaque handle for cancelling a scheduled event.  Value 0 is "none".
/// Encodes (generation << 32 | pool slot + 1); a stale handle — the event
/// already ran, was cancelled, or the slot was reused — never matches.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  void reset() { value = 0; }
};

class Engine {
 public:
  using Callback = sim::Callback;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedule `cb` at absolute time `when` (>= now).  Returns a handle that
  /// may be passed to cancel() until the event has run.
  EventId schedule_at(Nanos when, Callback cb,
                      EventBand band = EventBand::kDefault);

  /// Schedule `cb` after a relative delay (>= 0).
  EventId schedule_after(Nanos delay, Callback cb,
                         EventBand band = EventBand::kDefault) {
    return schedule_at(now() + delay, std::move(cb), band);
  }

  /// Cancel a pending event.  Safe to call with an already-run, already-
  /// cancelled, or invalid id (it becomes a no-op).  O(1).
  void cancel(EventId id);

  /// Run events until the queue is empty or `t_end` is passed.  Events at
  /// exactly t_end still run.  Returns the number of events executed.
  std::uint64_t run_until(Nanos t_end);

  /// Run until the queue drains entirely.
  std::uint64_t run_all();

  /// Execute exactly one event if present.  Returns false if queue empty.
  bool step();

  /// Exact: counts scheduled events that have neither run nor been
  /// cancelled.  Stale cancels cannot skew it (generation tags reject them).
  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::uint64_t pending_count() const { return live_count_; }

  /// If an event callback throws, the exception propagates out of run_*;
  /// the engine remains usable.

 private:
  // 2^12 slots of 2^10 ns: ~1 us buckets spanning ~4.2 ms.  Timer and
  // completion events land in the wheel; multi-ms device/SMI events take
  // the far heap and migrate as the window advances.
  static constexpr int kSlotShift = 10;
  static constexpr Nanos kSlotNs = Nanos{1} << kSlotShift;
  static constexpr std::uint32_t kNumSlots = 1u << 12;
  static constexpr std::uint32_t kSlotMask = kNumSlots - 1;
  static constexpr Nanos kSpanNs = kSlotNs * kNumSlots;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  // An out-of-order slot is bucketed by sub-slot,
  // (when & (kSlotNs - 1)) >> kSubShift, before each bucket is sorted.
  static constexpr int kSubShift = 4;  // 16 ns buckets, 64 per slot
  static constexpr std::uint32_t kSubBuckets = 1u << (kSlotShift - kSubShift);

  enum class Loc : std::uint8_t {
    kFree,    // on the free list
    kWheel,   // linked into a wheel slot
    kFar,     // in the far (overflow) heap
    kReady,   // in the ready run or the side heap
  };

  // Same-time order: band in the top byte, then the global FIFO sequence
  // number (2^56 schedules outlast any run).
  static constexpr int kBandShift = 56;

  struct Node {
    Nanos when = 0;
    std::uint64_t order = 0;  // band << kBandShift | seq
    Callback cb;
    std::uint32_t next = kNil;  // wheel slot list linkage
    std::uint32_t prev = kNil;
    std::uint32_t gen = 0;
    Loc loc = Loc::kFree;
    bool cancelled = false;  // tombstone for run- and heap-resident nodes
  };

  /// A ready entry (run or side heap): the node's full sort key plus its
  /// pool index.
  struct ReadyEntry {
    Nanos when;
    std::uint64_t order;
    std::uint32_t idx;
  };

  [[nodiscard]] static std::uint64_t encode(std::uint32_t idx,
                                            std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) |
           (static_cast<std::uint64_t>(idx) + 1);
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  void link_wheel(std::uint32_t idx);
  void unlink_wheel(std::uint32_t idx);
  /// Fill the (empty) run with the slot's entries in descending order.
  void drain_slot(std::uint32_t slot);
  /// Sort the run descending: bucket by sub-slot, then sort each bucket.
  void sort_run();
  [[nodiscard]] std::uint32_t find_occupied_from(std::uint32_t slot) const;
  /// Advance wheel state and drain the next occupied slot into the run.
  /// Returns false when no live events exist anywhere.
  bool refill_ready();
  /// The earliest live ready entry, or nullptr when nothing is pending.
  /// Reclaims tombstoned heads and refills the run as needed; the pointer
  /// stays valid until the next schedule_at or pop.
  const ReadyEntry* peek_live();
  /// Pop `head` (from peek_live) and run its callback.
  void fire(const ReadyEntry* head);

  // The side heap orders its inline keys; the far heap stores bare pool
  // indices, ordered by the nodes' times.
  [[nodiscard]] static bool ready_after(const ReadyEntry& a,
                                        const ReadyEntry& b);
  [[nodiscard]] bool far_after(std::uint32_t a, std::uint32_t b) const;
  void side_push(std::uint32_t idx);
  std::uint32_t side_pop();
  void far_push(std::uint32_t idx);
  std::uint32_t far_pop();

  Nanos now_ = 0;
  Nanos wheel_base_ = 0;  // slot-aligned start of the undrained window
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;

  std::uint64_t live_count_ = 0;   // scheduled, not run, not cancelled
  std::uint64_t wheel_count_ = 0;  // live nodes currently wheel-resident

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::array<std::uint32_t, kNumSlots> slot_head_;
  std::array<std::uint64_t, kNumSlots / 64> occupied_;
  std::vector<ReadyEntry> run_;   // the drained slot, popped from the back
  std::vector<ReadyEntry> spare_;  // sort_run's scatter target
  std::vector<ReadyEntry> side_;  // heap of schedules into the drained window
  std::vector<std::uint32_t> far_;
};

}  // namespace hrt::sim
