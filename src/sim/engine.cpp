#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace hrt::sim {

Engine::Engine() {
  slot_head_.fill(kNil);
  occupied_.fill(0);
  pool_.reserve(64);
  run_.reserve(64);
  side_.reserve(64);
  far_.reserve(64);
}

bool Engine::ready_after(const ReadyEntry& a, const ReadyEntry& b) {
  if (a.when != b.when) return a.when > b.when;
  return a.order > b.order;
}

bool Engine::far_after(std::uint32_t a, std::uint32_t b) const {
  // Ties need no band/seq resolution here: far events are migrated into the
  // wheel and finally ordered in the ready run.
  return pool_[a].when > pool_[b].when;
}

void Engine::side_push(std::uint32_t idx) {
  const Node& n = pool_[idx];
  side_.push_back(ReadyEntry{n.when, n.order, idx});
  std::push_heap(side_.begin(), side_.end(),
                 [](const ReadyEntry& a, const ReadyEntry& b) {
                   return ready_after(a, b);
                 });
}

std::uint32_t Engine::side_pop() {
  std::pop_heap(side_.begin(), side_.end(),
                [](const ReadyEntry& a, const ReadyEntry& b) {
                  return ready_after(a, b);
                });
  const std::uint32_t idx = side_.back().idx;
  side_.pop_back();
  return idx;
}

void Engine::far_push(std::uint32_t idx) {
  far_.push_back(idx);
  std::push_heap(far_.begin(), far_.end(),
                 [this](std::uint32_t a, std::uint32_t b) {
                   return far_after(a, b);
                 });
}

std::uint32_t Engine::far_pop() {
  std::pop_heap(far_.begin(), far_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return far_after(a, b);
                });
  const std::uint32_t idx = far_.back();
  far_.pop_back();
  return idx;
}

std::uint32_t Engine::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    return idx;
  }
  if (pool_.size() >= static_cast<std::size_t>(kNil)) {
    throw std::length_error("Engine: event pool exhausted");
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Engine::free_node(std::uint32_t idx) {
  Node& n = pool_[idx];
  n.cb.reset();
  n.loc = Loc::kFree;
  n.cancelled = false;
  ++n.gen;  // invalidate outstanding EventIds for this slot
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
}

void Engine::link_wheel(std::uint32_t idx) {
  Node& n = pool_[idx];
  const auto s =
      static_cast<std::uint32_t>((n.when >> kSlotShift) & kSlotMask);
  n.prev = kNil;
  n.next = slot_head_[s];
  if (n.next != kNil) pool_[n.next].prev = idx;
  slot_head_[s] = idx;
  occupied_[s >> 6] |= std::uint64_t{1} << (s & 63);
  n.loc = Loc::kWheel;
  ++wheel_count_;
}

void Engine::unlink_wheel(std::uint32_t idx) {
  Node& n = pool_[idx];
  const auto s =
      static_cast<std::uint32_t>((n.when >> kSlotShift) & kSlotMask);
  if (n.prev != kNil) {
    pool_[n.prev].next = n.next;
  } else {
    slot_head_[s] = n.next;
  }
  if (n.next != kNil) pool_[n.next].prev = n.prev;
  if (slot_head_[s] == kNil) {
    occupied_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
  }
  --wheel_count_;
}

void Engine::drain_slot(std::uint32_t slot) {
  // The run is popped from the back, so it is kept in descending order.  The
  // slot list is LIFO: when its events were scheduled in (when, band) order,
  // as a lock-stepped gang's are, the walk already yields that order.
  // Otherwise sort once.
  assert(run_.empty());
  bool descending = true;
  for (std::uint32_t idx = slot_head_[slot]; idx != kNil;) {
    Node& n = pool_[idx];
    n.loc = Loc::kReady;
    const ReadyEntry e{n.when, n.order, idx};
    if (!run_.empty() && ready_after(e, run_.back())) descending = false;
    run_.push_back(e);
    idx = n.next;
  }
  slot_head_[slot] = kNil;
  occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  wheel_count_ -= run_.size();
  if (!descending) sort_run();
}

void Engine::sort_run() {
  // Every entry lies in one slot, so descending sub-slot order is
  // descending time order up to ties inside a bucket.  Bucket 0 is the
  // slot's latest sub-slot.
  const auto bucket = [](Nanos when) {
    return kSubBuckets - 1 -
           static_cast<std::uint32_t>((when & (kSlotNs - 1)) >> kSubShift);
  };
  std::array<std::uint32_t, kSubBuckets + 1> start{};
  for (const ReadyEntry& e : run_) ++start[bucket(e.when) + 1];
  for (std::uint32_t b = 0; b < kSubBuckets; ++b) start[b + 1] += start[b];
  std::array<std::uint32_t, kSubBuckets> fill;
  std::copy_n(start.begin(), kSubBuckets, fill.begin());
  spare_.resize(run_.size());
  for (const ReadyEntry& e : run_) spare_[fill[bucket(e.when)]++] = e;
  run_.swap(spare_);
  for (std::uint32_t b = 0; b < kSubBuckets; ++b) {
    if (start[b + 1] - start[b] < 2) continue;
    std::sort(run_.begin() + start[b], run_.begin() + start[b + 1],
              [](const ReadyEntry& x, const ReadyEntry& y) {
                return ready_after(x, y);
              });
  }
}

std::uint32_t Engine::find_occupied_from(std::uint32_t slot) const {
  constexpr std::uint32_t kWords = kNumSlots / 64;
  std::uint32_t w = slot >> 6;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (slot & 63));
  // One extra iteration so the starting word is re-checked in full: bits
  // below `slot` are circularly the furthest slots in the window.
  for (std::uint32_t i = 0; i <= kWords; ++i) {
    if (word != 0) {
      return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
    }
    w = (w + 1) & (kWords - 1);
    word = occupied_[w];
  }
  return kNil;
}

EventId Engine::schedule_at(Nanos when, Callback cb, EventBand band) {
  if (when < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  const std::uint32_t idx = alloc_node();
  Node& n = pool_[idx];
  n.when = when;
  n.order = (static_cast<std::uint64_t>(band) << kBandShift) | next_seq_++;
  n.cancelled = false;
  n.cb = std::move(cb);
  ++live_count_;
  if (when < wheel_base_) {
    // Inside the already-drained region (e.g. scheduled from a callback for
    // "now"); it may precede entries still in the run, so it takes the side
    // heap.
    n.loc = Loc::kReady;
    side_push(idx);
  } else if (when < wheel_base_ + kSpanNs) {
    link_wheel(idx);
  } else {
    n.loc = Loc::kFar;
    far_push(idx);
  }
  return EventId{encode(idx, n.gen)};
}

void Engine::cancel(EventId id) {
  if (!id.valid()) return;
  const auto idx = static_cast<std::uint32_t>((id.value & 0xFFFFFFFFu) - 1);
  const auto gen = static_cast<std::uint32_t>(id.value >> 32);
  if (idx >= pool_.size()) return;
  Node& n = pool_[idx];
  if (n.gen != gen || n.loc == Loc::kFree || n.cancelled) return;
  --live_count_;
  if (n.loc == Loc::kWheel) {
    // O(1): unlink from the slot list and reclaim immediately.
    unlink_wheel(idx);
    free_node(idx);
  } else {
    // Far-, run- or side-heap-resident: tombstone, reclaimed lazily when
    // the pop reaches it.
    n.cancelled = true;
    n.cb.reset();  // release captured resources eagerly
  }
}

bool Engine::refill_ready() {
  if (live_count_ == 0) return false;
  for (;;) {
    if (wheel_count_ == 0) {
      // Every live event is in the far heap (the run and side heap are
      // empty).  Purge tombstones and jump the window to the earliest far
      // event.
      while (!far_.empty() && pool_[far_.front()].cancelled) {
        free_node(far_pop());
      }
      if (far_.empty()) return false;
      wheel_base_ = pool_[far_.front()].when & ~(kSlotNs - 1);
    }
    // Migrate far events that fall inside the (possibly advanced) window.
    while (!far_.empty()) {
      const std::uint32_t top = far_.front();
      if (pool_[top].cancelled) {
        free_node(far_pop());
        continue;
      }
      if (pool_[top].when >= wheel_base_ + kSpanNs) break;
      far_pop();
      link_wheel(top);
    }
    if (wheel_count_ == 0) continue;
    const auto base_slot =
        static_cast<std::uint32_t>((wheel_base_ >> kSlotShift) & kSlotMask);
    const std::uint32_t s = find_occupied_from(base_slot);
    assert(s != kNil);
    const Nanos slot_start =
        wheel_base_ +
        static_cast<Nanos>((s - base_slot) & kSlotMask) * kSlotNs;
    drain_slot(s);
    wheel_base_ = slot_start + kSlotNs;
    // Wheel nodes are never tombstoned, so the run's head is live.
    return true;
  }
}

const Engine::ReadyEntry* Engine::peek_live() {
  for (;;) {
    while (!run_.empty() && pool_[run_.back().idx].cancelled) {
      free_node(run_.back().idx);
      run_.pop_back();
    }
    while (!side_.empty() && pool_[side_.front().idx].cancelled) {
      free_node(side_pop());
    }
    if (!run_.empty()) {
      const ReadyEntry& head = run_.back();
      if (side_.empty() || ready_after(side_.front(), head)) return &head;
      return &side_.front();
    }
    if (!side_.empty()) return &side_.front();
    // Everything before wheel_base_ has run: drain the next slot.
    if (!refill_ready()) return nullptr;
  }
}

void Engine::fire(const ReadyEntry* head) {
  const Nanos when = head->when;
  std::uint32_t idx;
  if (!run_.empty() && head == &run_.back()) {
    idx = head->idx;
    run_.pop_back();
  } else {
    idx = side_pop();
  }
  assert(when >= now_);
  now_ = when;
  Callback cb = std::move(pool_[idx].cb);
  --live_count_;
  free_node(idx);
  ++executed_;
  cb();
}

bool Engine::step() {
  const ReadyEntry* head = peek_live();
  if (head == nullptr) return false;
  fire(head);
  return true;
}

std::uint64_t Engine::run_until(Nanos t_end) {
  std::uint64_t n = 0;
  for (;;) {
    const ReadyEntry* head = peek_live();
    if (head == nullptr || head->when > t_end) break;
    fire(head);
    ++n;
  }
  // Advance the clock to the horizon even if the queue ran dry earlier.
  if (now_ < t_end) now_ = t_end;
  return n;
}

std::uint64_t Engine::run_all() {
  std::uint64_t n = 0;
  while (step()) ++n;
  return n;
}

}  // namespace hrt::sim
