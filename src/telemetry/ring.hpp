// Lock-free SPSC flight-recorder ring (docs/OBSERVABILITY.md).
//
// One ring per CPU, one writer (the code instrumented on that CPU), any
// number of snapshot readers.  The ring never blocks the writer: when full
// it overwrites the oldest slot (drop-oldest, the flight-recorder policy —
// the most recent history is the valuable part).  Each slot carries a
// per-slot sequence tag in the seqlock style: odd while a write is in
// flight, even (2 * (logical_index + 1)) once committed.  A reader copies
// the slot and re-checks the tag; a concurrent overwrite of that slot shows
// up as a tag change and the torn copy is discarded rather than returned.
//
// Slots are plain words accessed through std::atomic_ref, so an all-zero
// slot is an empty one: a ring can live in zeroed memory (std::calloc), and
// FlightRecorder carves all of its per-CPU rings out of one such slab, whose
// pages are faulted in only where records land.
//
// Inside the simulator all CPUs of one System run on a single host thread,
// so writer and reader never actually race there; the real atomics matter
// for the cross-thread stress test (tests/test_telemetry.cpp) and keep the
// design honest for a native port.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "telemetry/record.hpp"

namespace hrt::telemetry {

class SpscRing {
 public:
  /// One ring slot.  Trivially constructible: zero-filled memory is an
  /// empty slot (tag 0 never matches a committed index).
  struct Slot {
    std::uint64_t seq;   // seqlock tag: odd in flight, 2 * (index + 1) done
    std::uint64_t time;
    std::uint64_t arg;
    std::uint64_t tail;  // tid | cpu << 32 | kind << 48 | gen << 56
  };
  static_assert(std::is_trivially_default_constructible_v<Slot>);

  struct FreeSlots {
    void operator()(Slot* p) const noexcept { std::free(p); }
  };
  /// `n` zeroed slots as one std::calloc block (empty for n = 0).
  using Slab = std::unique_ptr<Slot[], FreeSlots>;
  [[nodiscard]] static Slab zeroed_slots(std::size_t n) {
    if (n == 0) return Slab();
    auto* p = static_cast<Slot*>(std::calloc(n, sizeof(Slot)));
    if (p == nullptr) throw std::bad_alloc();
    return Slab(p);
  }

  /// Capacity rounded up to a power of two (minimum 8).
  [[nodiscard]] static std::size_t round_capacity(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    return cap;
  }

  /// A ring owning its own zeroed slots; capacity as round_capacity.
  explicit SpscRing(std::size_t capacity)
      : own_(zeroed_slots(round_capacity(capacity))),
        slots_(own_.get()),
        capacity_(round_capacity(capacity)),
        mask_(capacity_ - 1),
        lap_shift_(std::countr_zero(capacity_)) {}

  /// A ring over `capacity` zeroed slots owned by the caller, who keeps
  /// them alive as long as the ring.  `capacity` must be a power of two.
  SpscRing(Slot* slots, std::size_t capacity)
      : slots_(slots),
        capacity_(capacity),
        mask_(capacity - 1),
        lap_shift_(std::countr_zero(capacity)) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Writer side.  Always succeeds; a full ring drops its oldest record.
  void push(const Record& r) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    // Odd tag: write in flight.  Readers that see it skip the slot.  The
    // fence keeps the payload stores below from moving above the tag.
    store_word(s.seq, 2 * h + 1);
    std::atomic_thread_fence(std::memory_order_release);
    store_word(s.time, static_cast<std::uint64_t>(r.time));
    store_word(s.arg, static_cast<std::uint64_t>(r.arg));
    const auto gen = static_cast<std::uint8_t>(h >> lap_shift_);
    store_word(s.tail, pack_tail(r, gen));
    // Even tag encodes the logical index, so a reader can verify the copy
    // belongs to the generation it expected (wraparound detection).
    store_word(s.seq, 2 * (h + 1), std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Total records ever pushed.
  [[nodiscard]] std::uint64_t written() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Records overwritten by wraparound (drop-oldest).
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t h = written();
    return h > capacity_ ? h - capacity_ : 0;
  }

  /// Oldest logical index still retained.
  [[nodiscard]] std::uint64_t first_retained() const {
    const std::uint64_t h = written();
    return h > capacity_ ? h - capacity_ : 0;
  }

  /// Copy out the retained window, oldest first.  Slots overwritten (or
  /// mid-write) during the copy are skipped; `torn` (optional) counts them.
  [[nodiscard]] std::vector<Record> snapshot(
      std::uint64_t* torn = nullptr) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t lo = h > capacity_ ? h - capacity_ : 0;
    std::vector<Record> out;
    out.reserve(static_cast<std::size_t>(h - lo));
    std::uint64_t skipped = 0;
    for (std::uint64_t i = lo; i < h; ++i) {
      Slot& s = slots_[i & mask_];
      const std::uint64_t before = load_word(s.seq, std::memory_order_acquire);
      Record r;
      r.time = static_cast<sim::Nanos>(load_word(s.time));
      r.arg = static_cast<std::int64_t>(load_word(s.arg));
      unpack_tail(load_word(s.tail), r);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t after = load_word(s.seq);
      if (before == after && before == 2 * (i + 1)) {
        out.push_back(r);
      } else {
        ++skipped;  // overwritten or being written while we copied
      }
    }
    if (torn != nullptr) *torn = skipped;
    return out;
  }

 private:
  // Every slot word, tag included, is a relaxed (or release/acquire, for
  // the tag) atomic access: a reader may copy a slot while the writer
  // overwrites it (the seqlock then discards the copy), and that overlap
  // must still be a defined access.  On x86-64 these are plain moves.
  static_assert(std::atomic_ref<std::uint64_t>::required_alignment ==
                alignof(std::uint64_t));

  static void store_word(std::uint64_t& w, std::uint64_t v,
                         std::memory_order o = std::memory_order_relaxed) {
    std::atomic_ref<std::uint64_t>(w).store(v, o);
  }
  static std::uint64_t load_word(
      std::uint64_t& w, std::memory_order o = std::memory_order_relaxed) {
    return std::atomic_ref<std::uint64_t>(w).load(o);
  }

  static std::uint64_t pack_tail(const Record& r, std::uint8_t gen) {
    return std::uint64_t{r.tid} | std::uint64_t{r.cpu} << 32 |
           std::uint64_t{static_cast<std::uint8_t>(r.kind)} << 48 |
           std::uint64_t{gen} << 56;
  }
  static void unpack_tail(std::uint64_t t, Record& r) {
    r.tid = static_cast<std::uint32_t>(t);
    r.cpu = static_cast<std::uint16_t>(t >> 32);
    r.kind = static_cast<EventKind>(static_cast<std::uint8_t>(t >> 48));
    r.gen = static_cast<std::uint8_t>(t >> 56);
  }

  Slab own_;  // empty when the slots belong to a recorder's slab
  Slot* slots_;
  std::size_t capacity_;
  std::uint64_t mask_;
  int lap_shift_;  // log2(capacity_): h >> lap_shift_ is h's lap
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace hrt::telemetry
