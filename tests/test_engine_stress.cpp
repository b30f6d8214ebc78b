// Engine stress tests: randomized schedule/cancel/run interleavings checked
// against a naive reference implementation.  Callbacks schedule and cancel
// while they run, as the kernel's do; a batched fuzz also cancels handles
// that already ran, including a running event's own, and adds lock-step
// clusters of up to 300 events in one wheel slot, and wide slots in random
// order, whose callbacks schedule into the drained window and cancel events
// of their own slot.  Also pins the stale-cancel regressions: empty() must
// stay exact and a recycled pool slot must not be cancellable through an
// old handle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace hrt::sim {
namespace {

/// What an event does when it runs.  Children of a firing event never act
/// themselves and carry its tag with one marker bit set, so tags stay unique.
enum class OnFire : int {
  kNothing,
  kReschedule,    // schedule at now() + 1: below wheel_base_, the side heap
  kKick,          // schedule at now() + kKickNs in kHardware, like an IPI
  kCancelNewest,  // cancel the newest live handle
  // Cancel the newest handle ever scheduled, which may have run, been
  // cancelled, or be the running event itself: then a no-op.
  kCancelLastScheduled,
  // Schedule at now() in kSmi: ahead of same-time events still pending.
  kNowSmi,
  // Schedule at the last nanosecond of now()'s wheel slot, which has
  // drained: behind some of its pending events, ahead of others.
  kSlotEnd,
  // Cancel the event tagged `target`, pending or not.
  kCancelTarget,
};
constexpr Nanos kKickNs = 400;
constexpr Nanos kSlotNs = 1024;  // the engine's wheel slot width
constexpr std::uint64_t kRescheduleBit = std::uint64_t{1} << 62;
constexpr std::uint64_t kKickBit = std::uint64_t{1} << 61;
constexpr std::uint64_t kNowSmiBit = std::uint64_t{1} << 60;
constexpr std::uint64_t kSlotEndBit = std::uint64_t{1} << 59;

// Naive reference model: a flat vector, linear min-scan on every pop.
class ReferenceModel {
 public:
  void schedule(Nanos when, std::uint8_t band, std::uint64_t tag,
                OnFire on_fire = OnFire::kNothing, std::uint64_t target = 0) {
    pending_.push_back(Entry{when, band, next_seq_++, tag, on_fire, target});
    last_tag_ = tag;
  }

  bool cancel(std::uint64_t tag) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->tag == tag) {
        pending_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Pop every entry with when <= t_end in (when, band, seq) order,
  /// appending tags to `order` and applying each entry's OnFire.
  void run_until(Nanos t_end, std::vector<std::uint64_t>& order) {
    while (pop(t_end, order)) {
    }
  }

  /// Pop the first entry, if any, like Engine::step().
  bool step(std::vector<std::uint64_t>& order) {
    return pop(std::numeric_limits<Nanos>::max(), order);
  }

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] Nanos now() const { return now_; }
  /// Time of every pop so far, parallel to the run_until `order`.
  [[nodiscard]] const std::vector<Nanos>& fired_at() const {
    return fired_at_;
  }

 private:
  struct Entry {
    Nanos when;
    std::uint8_t band;
    std::uint64_t seq;
    std::uint64_t tag;
    OnFire on_fire;
    std::uint64_t target;
  };
  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.band != b.band) return a.band < b.band;
    return a.seq < b.seq;
  }

  bool pop(Nanos t_end, std::vector<std::uint64_t>& order) {
    std::size_t best = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].when > t_end) continue;
      if (best == pending_.size() || before(pending_[i], pending_[best])) {
        best = i;
      }
    }
    if (best == pending_.size()) return false;
    const Entry e = pending_[best];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    order.push_back(e.tag);
    fired_at_.push_back(e.when);
    now_ = e.when;
    fire(e);
    return true;
  }

  void fire(const Entry& e) {
    switch (e.on_fire) {
      case OnFire::kNothing:
        break;
      case OnFire::kReschedule:
        schedule(now_ + 1, static_cast<std::uint8_t>(EventBand::kDefault),
                 e.tag | kRescheduleBit);
        break;
      case OnFire::kKick:
        schedule(now_ + kKickNs,
                 static_cast<std::uint8_t>(EventBand::kHardware),
                 e.tag | kKickBit);
        break;
      case OnFire::kCancelNewest:
        // pending_ stays in schedule order, so the newest is at the back.
        if (!pending_.empty()) pending_.pop_back();
        break;
      case OnFire::kCancelLastScheduled:
        cancel(last_tag_);
        break;
      case OnFire::kNowSmi:
        schedule(now_, static_cast<std::uint8_t>(EventBand::kSmi),
                 e.tag | kNowSmiBit);
        break;
      case OnFire::kSlotEnd:
        schedule(now_ | (kSlotNs - 1),
                 static_cast<std::uint8_t>(EventBand::kDefault),
                 e.tag | kSlotEndBit);
        break;
      case OnFire::kCancelTarget:
        cancel(e.target);
        break;
    }
  }

  std::vector<Entry> pending_;
  std::vector<Nanos> fired_at_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_tag_ = 0;
  Nanos now_ = 0;
};

// The engine side of the comparison: the engine plus the handle bookkeeping
// its callbacks need to mirror ReferenceModel::fire.
template <typename EngineT>
struct EngineUnderTest {
  struct Live {
    EventId id;
    std::uint64_t tag;
  };

  void schedule(Nanos when, EventBand band, std::uint64_t tag,
                OnFire on_fire, std::uint64_t target = 0) {
    const EventId id = eng.schedule_at(
        when, [this, tag, on_fire, target] { fire(tag, on_fire, target); },
        band);
    live.push_back(Live{id, tag});
    scheduled.push_back(Live{id, tag});
  }

  void cancel(std::size_t i) {
    eng.cancel(live[i].id);
    stale.push_back(live[i].id);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  }

  /// Cancel scheduled[i], whether it is still live or not.
  void cancel_scheduled(std::size_t i) {
    const std::uint64_t tag = scheduled[i].tag;
    const auto it = std::find_if(
        live.begin(), live.end(), [tag](const Live& l) { return l.tag == tag; });
    if (it != live.end()) {
      cancel(static_cast<std::size_t>(it - live.begin()));
    } else {
      eng.cancel(scheduled[i].id);  // stale
    }
  }

  /// Cancel the event tagged `tag`, whether it is still live or not.
  void cancel_tag(std::uint64_t tag) {
    const auto it =
        std::find_if(scheduled.begin(), scheduled.end(),
                     [tag](const Live& l) { return l.tag == tag; });
    if (it != scheduled.end()) {
      cancel_scheduled(static_cast<std::size_t>(it - scheduled.begin()));
    }
  }

  EngineT eng;
  std::vector<Live> live;      // neither run nor cancelled, oldest first
  std::vector<Live> scheduled;  // every handle, in schedule order
  std::vector<EventId> stale;  // ran or cancelled: cancel must be a no-op
  std::vector<std::uint64_t> got;  // execution order (tags)
  std::vector<Nanos> got_at;       // now() at each execution

 private:
  void fire(std::uint64_t tag, OnFire on_fire, std::uint64_t target) {
    got.push_back(tag);
    got_at.push_back(eng.now());
    const auto self = std::find_if(
        live.begin(), live.end(), [tag](const Live& l) { return l.tag == tag; });
    stale.push_back(self->id);
    live.erase(self);
    switch (on_fire) {
      case OnFire::kNothing:
        break;
      case OnFire::kReschedule:
        schedule(eng.now() + 1, EventBand::kDefault, tag | kRescheduleBit,
                 OnFire::kNothing);
        break;
      case OnFire::kKick:
        schedule(eng.now() + kKickNs, EventBand::kHardware, tag | kKickBit,
                 OnFire::kNothing);
        break;
      case OnFire::kCancelNewest:
        if (!live.empty()) cancel(live.size() - 1);
        break;
      case OnFire::kCancelLastScheduled:
        cancel_scheduled(scheduled.size() - 1);
        break;
      case OnFire::kNowSmi:
        schedule(eng.now(), EventBand::kSmi, tag | kNowSmiBit,
                 OnFire::kNothing);
        break;
      case OnFire::kSlotEnd:
        schedule(eng.now() | (kSlotNs - 1), EventBand::kDefault,
                 tag | kSlotEndBit, OnFire::kNothing);
        break;
      case OnFire::kCancelTarget:
        cancel_tag(target);
        break;
    }
  }
};

template <typename EngineT>
class EngineStress : public ::testing::Test {};

using EngineTypes = ::testing::Types<Engine>;
TYPED_TEST_SUITE(EngineStress, EngineTypes);

TYPED_TEST(EngineStress, RandomInterleavingsMatchReference) {
  for (std::uint64_t seed : {1u, 7u, 42u, 999u}) {
    EngineUnderTest<TypeParam> e;
    ReferenceModel ref;
    Rng rng(seed);
    std::vector<std::uint64_t> expected;  // reference execution order
    std::uint64_t next_tag = 1;

    for (int step = 0; step < 4000; ++step) {
      const double p = rng.next_double();
      if (p < 0.55) {
        // Schedule: bias to short delays (timer scale), with a far tail
        // that crosses the wheel-window boundary; delay 0 is legal.  Some
        // times round down to 64 ns so same-time events tie-break on
        // (band, seq).
        Nanos delay;
        const double q = rng.next_double();
        if (q < 0.6) {
          delay = rng.uniform(0, micros(100));
        } else if (q < 0.9) {
          delay = rng.uniform(micros(100), millis(6));
        } else {
          delay = rng.uniform(millis(6), millis(60));
        }
        Nanos when = e.eng.now() + delay;
        if (rng.next_double() < 0.3) {
          when = std::max(e.eng.now(), when & ~Nanos{63});
        }
        const auto band = static_cast<EventBand>(rng.uniform(0, 3));
        const auto on_fire = static_cast<OnFire>(rng.uniform(0, 3));
        const std::uint64_t tag = next_tag++;
        e.schedule(when, band, tag, on_fire);
        ref.schedule(when, static_cast<std::uint8_t>(band), tag, on_fire);
      } else if (p < 0.75 && !e.live.empty()) {
        // Cancel a pending event.
        const auto i = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(e.live.size()) - 1));
        ASSERT_TRUE(ref.cancel(e.live[i].tag)) << "seed " << seed;
        e.cancel(i);
      } else if (p < 0.8 && !e.stale.empty()) {
        // Stale cancel: the event already ran or was cancelled; must be an
        // exact no-op.
        const auto i = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(e.stale.size()) - 1));
        e.eng.cancel(e.stale[i]);
      } else if (p < 0.95) {
        const Nanos horizon = e.eng.now() + rng.uniform(0, micros(500));
        e.eng.run_until(horizon);
        ref.run_until(horizon, expected);
      } else {
        e.eng.run_all();
        ref.run_until(std::numeric_limits<Nanos>::max() / 2, expected);
      }
      ASSERT_EQ(e.got.size(), expected.size()) << "seed " << seed;
      ASSERT_EQ(e.eng.empty(), ref.empty()) << "seed " << seed;
    }

    e.eng.run_all();
    ref.run_until(std::numeric_limits<Nanos>::max() / 2, expected);
    ASSERT_EQ(e.got, expected) << "seed " << seed;
    EXPECT_EQ(e.got_at, ref.fired_at()) << "seed " << seed;
    EXPECT_TRUE(e.eng.empty());
    EXPECT_EQ(e.eng.events_executed(), e.got.size());
  }
}

// Batched op stream, as a kernel tick produces: up to 64 schedules and
// cancels land together, many on round timestamps so (band, seq) carry the
// order, then time advances past part of them.  Cancels pick any handle
// ever scheduled, so many are stale; callbacks may cancel their own
// handle while running.  Every other batch adds a lock-step cluster, as a
// gang of CPUs finishing together produces: up to 300 schedules inside one
// wheel slot, in ascending or descending (when, band) order.  Every fourth
// batch adds a wide slot of 13-64 members at random offsets and bands,
// scheduled in random order, so the drain's sub-slot bucket sort runs; batch
// 20 adds 300 members at one timestamp in random band order: one bucket,
// long enough that std::sort partitions it.  Callbacks schedule into the
// drained window (at now() in kSmi, or at the slot's last nanosecond) and
// cancel cluster members that may still wait to run.  Seed 77 advances by
// step() alone, so batches also land while a drained slot is part-way
// through.
TEST(EngineFuzz, PopOrderMatchesReference) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u, 77u}) {
    const bool step_only = seed == 77;
    EngineUnderTest<Engine> e;
    ReferenceModel ref;
    Rng rng(seed);
    std::vector<std::uint64_t> expected;
    std::uint64_t next_tag = 1;
    Nanos t = 0;

    struct Member {
      Nanos when;
      EventBand band;
    };
    enum class Order { kAscending, kDescending, kShuffled };
    // Schedule `members` in `order`; each may cancel any member.
    auto schedule_cluster = [&](std::vector<Member> members, Order order) {
      if (order == Order::kShuffled) {
        for (std::size_t i = members.size(); i > 1; --i) {
          const auto j = static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(i) - 1));
          std::swap(members[i - 1], members[j]);
        }
      } else {
        const bool descending = order == Order::kDescending;
        std::sort(members.begin(), members.end(),
                  [descending](const Member& a, const Member& b) {
                    const bool lt = a.when != b.when ? a.when < b.when
                                                     : a.band < b.band;
                    const bool gt = a.when != b.when ? a.when > b.when
                                                     : a.band > b.band;
                    return descending ? gt : lt;
                  });
      }
      const std::uint64_t first = next_tag;
      const auto n = static_cast<std::int64_t>(members.size());
      for (const Member& m : members) {
        const auto on_fire = static_cast<OnFire>(rng.uniform(0, 7));
        const std::uint64_t tag = next_tag++;
        const std::uint64_t target =
            first + static_cast<std::uint64_t>(rng.uniform(0, n - 1));
        e.schedule(m.when, m.band, tag, on_fire, target);
        ref.schedule(m.when, static_cast<std::uint8_t>(m.band), tag, on_fire,
                     target);
      }
      return n;
    };
    auto random_band = [&rng] {
      return static_cast<EventBand>(rng.uniform(0, 3));
    };
    auto next_slot = [&rng, &t] {
      return (t + rng.uniform(kSlotNs, 4 * kSlotNs)) & ~(kSlotNs - 1);
    };

    for (int batch = 0; batch < 40; ++batch) {
      const auto ops = rng.uniform(1, 64);
      for (std::int64_t op = 0; op < ops; ++op) {
        if (rng.next_double() < 0.12 && !e.scheduled.empty()) {
          const auto i = static_cast<std::size_t>(rng.uniform(
              0, static_cast<std::int64_t>(e.scheduled.size()) - 1));
          ref.cancel(e.scheduled[i].tag);
          e.cancel_scheduled(i);
          continue;
        }
        Nanos when = t + rng.uniform(0, 4999);
        if (rng.next_double() < 0.3) when = std::max(t, when & ~Nanos{63});
        const auto band = static_cast<EventBand>(rng.uniform(0, 3));
        const auto on_fire = static_cast<OnFire>(rng.uniform(0, 7));
        const std::uint64_t tag = next_tag++;
        const auto target = static_cast<std::uint64_t>(
            rng.uniform(1, static_cast<std::int64_t>(tag)));
        e.schedule(when, band, tag, on_fire, target);
        ref.schedule(when, static_cast<std::uint8_t>(band), tag, on_fire,
                     target);
      }
      std::int64_t cluster = 0;
      if (batch % 2 == 1) {
        const auto size = rng.uniform(2, 300);
        const Nanos slot = next_slot();
        // Half the clusters share one timestamp, so only (band, seq) orders
        // them; the rest put half their members at the slot's start.
        const bool one_time = rng.next_double() < 0.5;
        const Nanos shared = rng.uniform(0, kSlotNs - 1);
        std::vector<Member> members;
        for (std::int64_t m = 0; m < size; ++m) {
          Nanos offset = shared;
          if (!one_time) {
            offset = rng.next_double() < 0.5 ? 0 : rng.uniform(0, kSlotNs - 1);
          }
          members.push_back(Member{slot + offset, random_band()});
        }
        cluster += schedule_cluster(std::move(members),
                                    rng.next_double() < 0.5
                                        ? Order::kDescending
                                        : Order::kAscending);
      }
      if (batch % 4 == 0) {
        const auto size = rng.uniform(13, 64);
        const Nanos slot = next_slot();
        std::vector<Member> members;
        for (std::int64_t m = 0; m < size; ++m) {
          members.push_back(
              Member{slot + rng.uniform(0, kSlotNs - 1), random_band()});
        }
        cluster += schedule_cluster(std::move(members), Order::kShuffled);
      }
      if (batch == 20) {
        const Nanos when = next_slot() + rng.uniform(0, kSlotNs - 1);
        std::vector<Member> members;
        for (int m = 0; m < 300; ++m) {
          members.push_back(Member{when, random_band()});
        }
        cluster += schedule_cluster(std::move(members), Order::kShuffled);
      }
      if (step_only) {
        const auto steps = rng.uniform(0, 2 * (ops + cluster));
        for (std::int64_t i = 0; i < steps; ++i) {
          const bool ran = e.eng.step();
          ASSERT_EQ(ran, ref.step(expected)) << "seed " << seed;
        }
        ASSERT_EQ(e.eng.now(), ref.now()) << "seed " << seed;
        t = e.eng.now();
      } else {
        t += rng.uniform(500, 3499);
        e.eng.run_until(t);
        ref.run_until(t, expected);
        ASSERT_EQ(e.eng.now(), t) << "seed " << seed;
      }
      ASSERT_EQ(e.got, expected) << "seed " << seed << " batch " << batch;
      ASSERT_EQ(e.eng.empty(), ref.empty()) << "seed " << seed;
      ASSERT_EQ(e.eng.pending_count(), ref.size()) << "seed " << seed;
    }

    while (e.eng.step()) {  // drain stragglers
    }
    ref.run_until(std::numeric_limits<Nanos>::max(), expected);
    ASSERT_EQ(e.got, expected) << "seed " << seed;
    EXPECT_EQ(e.got_at, ref.fired_at()) << "seed " << seed;
    EXPECT_TRUE(e.eng.empty());
    EXPECT_EQ(e.eng.events_executed(), e.got.size());
  }
}

// Regression (seed bug): empty() compared queue size against tombstone
// count, so a cancel() with an id that had already run made the engine
// report non-empty forever.
TYPED_TEST(EngineStress, EmptyStaysExactUnderStaleCancel) {
  TypeParam eng;
  const EventId id = eng.schedule_at(10, [] {});
  EXPECT_FALSE(eng.empty());
  EXPECT_EQ(eng.run_all(), 1u);
  EXPECT_TRUE(eng.empty());

  eng.cancel(id);  // stale: the event already ran
  EXPECT_TRUE(eng.empty());

  bool ran = false;
  eng.schedule_at(20, [&ran] { ran = true; });
  EXPECT_FALSE(eng.empty());
  EXPECT_EQ(eng.run_all(), 1u);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(eng.empty());
}

TYPED_TEST(EngineStress, DoubleCancelThenDrainReportsEmpty) {
  TypeParam eng;
  const EventId id = eng.schedule_at(50, [] {});
  eng.cancel(id);
  eng.cancel(id);  // second cancel of the same id is a no-op
  EXPECT_EQ(eng.run_all(), 0u);
  EXPECT_TRUE(eng.empty());
}

// Generation tags: a recycled pool slot must reject handles from its
// previous life.
TEST(EngineGenerations, StaleHandleCannotCancelRecycledSlot) {
  Engine eng;
  int first = 0;
  int second = 0;
  const EventId id1 = eng.schedule_at(10, [&first] { ++first; });
  eng.run_all();
  EXPECT_EQ(first, 1);

  // The pool slot of id1 is free; this schedule reuses it.
  eng.schedule_at(20, [&second] { ++second; });
  eng.cancel(id1);  // stale handle into a recycled slot: must be a no-op
  EXPECT_FALSE(eng.empty());
  eng.run_all();
  EXPECT_EQ(second, 1);
}

TEST(EngineGenerations, CancelReclaimsWheelSlotImmediately) {
  Engine eng;
  for (int round = 0; round < 1000; ++round) {
    const EventId id = eng.schedule_after(micros(5), [] {});
    eng.cancel(id);
  }
  EXPECT_TRUE(eng.empty());
  EXPECT_EQ(eng.run_all(), 0u);
  EXPECT_EQ(eng.events_executed(), 0u);
}

}  // namespace
}  // namespace hrt::sim
