#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/inline_fn.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace manet::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), TimePoint{0});
  EXPECT_EQ(s.pendingCount(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(TimePoint{30}, [&] { order.push_back(3); });
  s.schedule(TimePoint{10}, [&] { order.push_back(1); });
  s.schedule(TimePoint{20}, [&] { order.push_back(2); });
  s.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), TimePoint{30});
}

TEST(Scheduler, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    s.schedule(TimePoint{5}, [&order, i] { order.push_back(i); });
  }
  s.runAll();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler s;
  TimePoint seen = kNever;
  s.schedule(TimePoint{42}, [&] { seen = s.now(); });
  s.runAll();
  EXPECT_EQ(seen, TimePoint{42});
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  TimePoint seen = kNever;
  s.schedule(TimePoint{100}, [&] {
    s.scheduleAfter(Duration{50}, [&] { seen = s.now(); });
  });
  s.runAll();
  EXPECT_EQ(seen, TimePoint{150});
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  auto h = s.schedule(TimePoint{10}, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.runAll();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotent) {
  Scheduler s;
  auto h = s.schedule(TimePoint{10}, [] {});
  h.cancel();
  h.cancel();
  EXPECT_EQ(s.pendingCount(), 0u);
}

TEST(Scheduler, CancelAfterFireIsHarmless) {
  Scheduler s;
  int count = 0;
  auto h = s.schedule(TimePoint{10}, [&] { ++count; });
  s.runAll();
  h.cancel();
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, DefaultHandleIsInert) {
  Scheduler::Handle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler s;
  auto a = s.schedule(TimePoint{10}, [] {});
  auto b = s.schedule(TimePoint{20}, [] {});
  EXPECT_EQ(s.pendingCount(), 2u);
  a.cancel();
  EXPECT_EQ(s.pendingCount(), 1u);
  s.runAll();
  EXPECT_EQ(s.pendingCount(), 0u);
  (void)b;
}

TEST(Scheduler, RunUntilExecutesInclusiveBoundary) {
  Scheduler s;
  int count = 0;
  s.schedule(TimePoint{10}, [&] { ++count; });
  s.schedule(TimePoint{20}, [&] { ++count; });
  s.schedule(TimePoint{21}, [&] { ++count; });
  EXPECT_EQ(s.runUntil(TimePoint{20}), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), TimePoint{20});
  EXPECT_EQ(s.pendingCount(), 1u);
}

TEST(Scheduler, RunUntilAdvancesClockWhenQueueDrains) {
  Scheduler s;
  s.runUntil(TimePoint{500});
  EXPECT_EQ(s.now(), TimePoint{500});
}

/// runUntil composes: slicing a run at a fixed stride — with events exactly
/// on each slice boundary and on the horizon — replays the exact event log
/// and final clock of one straight runUntil. World::continueUntil, and the
/// sliced runs of bench/perf and the fingerprint tests, rely on this.
TEST(Scheduler, SlicedRunUntilMatchesAStraightRun) {
  const Duration stride{192};
  const TimePoint horizon = kTimeZero + Duration{1000};
  const std::vector<Duration> offsets = {
      Duration{0},   Duration{191}, Duration{192},  // exactly on boundary 1
      Duration{193}, Duration{384},                 // exactly on boundary 2
      Duration{575}, Duration{1000},                // exactly on the horizon
  };

  auto record = [&](Scheduler& s, std::vector<TimePoint>& log) {
    for (const Duration& offset : offsets) {
      s.schedule(kTimeZero + offset, [&log, &s] { log.push_back(s.now()); });
    }
  };

  Scheduler straight;
  std::vector<TimePoint> straightLog;
  record(straight, straightLog);
  straight.runUntil(horizon);

  Scheduler sliced;
  std::vector<TimePoint> slicedLog;
  record(sliced, slicedLog);
  int slices = 0;
  for (TimePoint cursor = kTimeZero; cursor < horizon; ++slices) {
    cursor = std::min(cursor + stride, horizon);
    sliced.runUntil(cursor);
  }

  EXPECT_EQ(slicedLog, straightLog);
  EXPECT_EQ(sliced.now(), straight.now());
  EXPECT_EQ(slices, 6);  // ceil(1000 / 192)
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.scheduleAfter(Duration{10}, chain);
  };
  s.schedule(TimePoint{0}, chain);
  s.runAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), TimePoint{40});
}

TEST(Scheduler, CancelFromInsideAnEarlierEvent) {
  Scheduler s;
  bool fired = false;
  auto victim = s.schedule(TimePoint{20}, [&] { fired = true; });
  s.schedule(TimePoint{10}, [&] { victim.cancel(); });
  s.runAll();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, RunOneReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.runOne());
  auto h = s.schedule(TimePoint{10}, [] {});
  h.cancel();
  EXPECT_FALSE(s.runOne());  // skips the dead event
}

TEST(Scheduler, RunAllHonorsMaxEvents) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.schedule(TimePoint{i}, [&] { ++count; });
  EXPECT_EQ(s.runAll(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(SchedulerDeath, RejectsSchedulingInThePast) {
  Scheduler s;
  s.schedule(TimePoint{10}, [] {});
  s.runAll();
  EXPECT_DEATH(s.schedule(TimePoint{5}, [] {}), "Precondition");
}

TEST(SchedulerDeath, RejectsACountdownPastTheWheelHorizon) {
  Scheduler s;
  EXPECT_DEATH(s.scheduleCountdown(Duration{20}, 52, [] {}), "Precondition");
  EXPECT_DEATH(s.scheduleCountdown(Duration{20}, 0, [] {}), "Precondition");
}

// --- slot recycling and generation counters (DESIGN.md §11) ---

TEST(Scheduler, StaleHandleOnRecycledSlotIsNoOp) {
  Scheduler s;
  int firstFired = 0;
  int secondFired = 0;
  auto stale = s.schedule(TimePoint{10}, [&] { ++firstFired; });
  s.runAll();  // fires and releases the slot
  // The freed slot is recycled immediately for the next event.
  auto fresh = s.schedule(TimePoint{20}, [&] { ++secondFired; });
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  stale.cancel();  // generation mismatch: must not kill the new occupant
  EXPECT_TRUE(fresh.pending());
  s.runAll();
  EXPECT_EQ(firstFired, 1);
  EXPECT_EQ(secondFired, 1);
}

TEST(Scheduler, StaleHandleAfterCancelOnRecycledSlotIsNoOp) {
  Scheduler s;
  bool fired = false;
  auto stale = s.schedule(TimePoint{10}, [] {});
  stale.cancel();  // releases the slot
  auto fresh = s.schedule(TimePoint{10}, [&] { fired = true; });
  stale.cancel();  // stale: slot recycled, generation differs
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  s.runAll();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, SlotReuseSurvivesHeavyChurn) {
  // Thousands of schedule/cancel/fire rounds across a handful of slots:
  // every event must fire exactly once, stale handles never interfere.
  Scheduler s;
  int fired = 0;
  std::vector<Scheduler::Handle> old;
  for (int round = 0; round < 1000; ++round) {
    auto keep = s.scheduleAfter(Duration{1}, [&] { ++fired; });
    auto kill = s.scheduleAfter(Duration{2}, [&] { ++fired; });
    kill.cancel();
    for (auto& h : old) h.cancel();  // all stale: no effect
    old.push_back(keep);
    s.runUntil(s.now() + Duration{3});
  }
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(s.pendingCount(), 0u);
}

TEST(Scheduler, FifoTieOrderSurvivesInterleavedCancels) {
  // Golden tie-order: equal-timestamp events fire in scheduling order even
  // when cancels punch holes in the middle of the tie group (eager heap
  // removal must not disturb the (at, seq) order of the survivors).
  Scheduler s;
  std::vector<int> order;
  std::vector<Scheduler::Handle> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(s.schedule(TimePoint{5}, [&order, i] { order.push_back(i); }));
  }
  for (int i : {1, 2, 5, 7, 11, 13, 14}) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  s.runAll();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 4, 6, 8, 9, 10, 12, 15}));
}

TEST(Scheduler, TieOrderSpansMixedTimestamps) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(TimePoint{20}, [&] { order.push_back(20); });
  s.schedule(TimePoint{10}, [&] { order.push_back(101); });
  s.schedule(TimePoint{10}, [&] { order.push_back(102); });
  auto h = s.schedule(TimePoint{10}, [&] { order.push_back(103); });
  s.schedule(TimePoint{10}, [&] { order.push_back(104); });
  h.cancel();
  s.schedule(TimePoint{10}, [&] { order.push_back(105); });
  s.runAll();
  EXPECT_EQ(order, (std::vector<int>{101, 102, 104, 105, 20}));
}

TEST(Scheduler, CallbackDestroyedPromptlyOnCancel) {
  // Cancelling must release captured state immediately (not at slot reuse):
  // the MAC parks packets in timer captures and the arena wants them back.
  Scheduler s;
  auto token = std::make_shared<int>(7);
  auto h = s.schedule(TimePoint{10}, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, CallbackDestroyedAfterFire) {
  Scheduler s;
  auto token = std::make_shared<int>(7);
  s.schedule(TimePoint{10}, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  s.runAll();
  EXPECT_EQ(token.use_count(), 1);
}

// --- timing wheel and heap (DESIGN.md §11.2) ---

TEST(SchedulerWheel, WheelEventsRunInTimeOrderWithHeapEvents) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(TimePoint{3000}, [&] { order.push_back(3000); });       // heap
  s.scheduleAfter(Duration{20}, [&] { order.push_back(20); });       // wheel
  s.schedule(TimePoint{10}, [&] {
    order.push_back(10);
    s.scheduleAfter(Duration{2990}, [&] { order.push_back(3001); });  // heap
    s.scheduleAfter(Duration{1013}, [&] { order.push_back(1023); });  // wheel
  });
  s.schedule(TimePoint{2500}, [&] {
    order.push_back(2500);
    s.scheduleAfter(Duration{499}, [&] { order.push_back(2999); });   // wheel
  });
  s.runAll();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 1023, 2500, 2999, 3000, 3001}));
  EXPECT_EQ(s.now(), TimePoint{3000});
}

TEST(SchedulerWheel, TiesBetweenWheelAndHeapRunInScheduleOrder) {
  // Four events due at t = 2000: two go to the heap (scheduled at t = 0
  // and at t = 976, exactly one horizon ahead), two to the wheel (scheduled
  // at t = 977 and t = 1500). They run in schedule order across the queues.
  Scheduler s;
  std::vector<char> order;
  s.schedule(TimePoint{2000}, [&] { order.push_back('a'); });
  s.schedule(TimePoint{976}, [&] {
    s.schedule(TimePoint{2000}, [&] { order.push_back('b'); });
  });
  s.schedule(TimePoint{977}, [&] {
    s.schedule(TimePoint{2000}, [&] { order.push_back('c'); });
  });
  s.schedule(TimePoint{1500}, [&] {
    s.schedule(TimePoint{2000}, [&] { order.push_back('d'); });
  });
  s.runAll();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(SchedulerWheel, PendingCountTracksCancelledWheelEvents) {
  Scheduler s;
  int fired = 0;
  auto a = s.scheduleAfter(Duration{20}, [&] { ++fired; });
  auto b = s.scheduleAfter(Duration{20}, [&] { fired += 10; });
  auto c = s.scheduleAfter(Duration{20}, [&] { fired += 100; });
  auto d = s.scheduleAfter(Duration{20}, [&] { fired += 1000; });
  EXPECT_EQ(s.pendingCount(), 4u);
  b.cancel();  // inside the bucket list
  c.cancel();
  EXPECT_EQ(s.pendingCount(), 2u);
  EXPECT_FALSE(b.pending());
  EXPECT_TRUE(a.pending());
  a.cancel();  // the list head
  EXPECT_EQ(s.pendingCount(), 1u);
  b.cancel();  // stale
  EXPECT_EQ(s.pendingCount(), 1u);
  EXPECT_TRUE(d.pending());
  EXPECT_TRUE(s.runOne());
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(s.pendingCount(), 0u);
  EXPECT_FALSE(s.runOne());
}

TEST(SchedulerWheel, CancelledWheelEventNeverFiresOnARecycledSlot) {
  // The cancelled event's slot is recycled by the next wheel event; the
  // stale handle still names that slot, but with the old generation.
  Scheduler s;
  std::vector<int> order;
  s.scheduleAfter(Duration{20}, [&] { order.push_back(1); });
  auto dead = s.scheduleAfter(Duration{20}, [&] { order.push_back(2); });
  dead.cancel();
  auto fresh = s.scheduleAfter(Duration{20}, [&] { order.push_back(3); });
  dead.cancel();  // stale: must not touch the recycled slot
  EXPECT_TRUE(fresh.pending());
  s.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SchedulerWheel, WheelCancelReleasesTheCallbackPromptly) {
  Scheduler s;
  auto token = std::make_shared<int>(7);
  s.scheduleAfter(Duration{20}, [] {});  // shares the bucket
  auto h = s.scheduleAfter(Duration{20}, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SchedulerWheel, BucketsWrapInOrder) {
  // Crowd one bucket, drain part of it, then fill buckets past the wheel's
  // end (1023 -> 0) and at its far edge, one microsecond short of the
  // horizon, next to a heap event exactly one horizon ahead. Cancels punch
  // holes in the crowded buckets.
  Scheduler s;
  s.runUntil(TimePoint{1000});
  std::vector<int> order;
  std::vector<Scheduler::Handle> handles;
  auto push = [&](int id, TimePoint at) {
    handles.push_back(
        s.schedule(at, [&order, id] { order.push_back(id); }));
  };
  for (int i = 0; i < 200; ++i) push(i, TimePoint{1020});
  for (int i = 0; i < 150; ++i) ASSERT_TRUE(s.runOne());
  EXPECT_EQ(s.now(), TimePoint{1020});
  for (int i = 200; i < 1200; ++i) push(i, TimePoint{1040});  // wrapped
  for (int i = 160; i < 1200; i += 7) {
    handles[static_cast<std::size_t>(i)].cancel();
  }
  push(-1, TimePoint{1040});  // last seq of its bucket
  push(-2, TimePoint{1023});  // the last bucket
  push(-3, TimePoint{1024});  // bucket 0
  push(-4, TimePoint{2043});  // the bucket just behind now's
  push(-5, TimePoint{2044});  // one horizon ahead: the heap
  std::size_t live = 5;
  for (int i = 150; i < 1200; ++i) live += (i < 160 || (i - 160) % 7 != 0);
  EXPECT_EQ(s.pendingCount(), live);
  s.runAll();

  std::vector<int> expected;
  for (int i = 150; i < 200; ++i) {
    if (i < 160 || (i - 160) % 7 != 0) expected.push_back(i);
  }
  expected.push_back(-2);
  expected.push_back(-3);
  for (int i = 200; i < 1200; ++i) {
    if ((i - 160) % 7 != 0) expected.push_back(i);
  }
  for (int id : {-1, -4, -5}) expected.push_back(id);
  EXPECT_EQ(std::vector<int>(order.begin() + 150, order.end()), expected);
  EXPECT_EQ(s.pendingCount(), 0u);
}

// Randomized differential: the scheduler against a plain (at, seq)-ordered
// reference queue. Each fired event, seeded by its own id, schedules
// children at the engine's delays (5, 20 and 50 us), zero and small random
// delays (so events tie often), delays on both sides of the wheel horizon
// and far into the heap, and cancels random handles, stale ones included;
// the run loop cancels between events too. Simulated time crosses the
// wheel's 1023 -> 0 wrap many times. Both sides must fire the same ids at
// the same times with the same pending counts.
class WheelBackend {
 public:
  TimePoint now() const { return s_.now(); }
  std::size_t pendingCount() const { return s_.pendingCount(); }
  void schedule(Duration delay, std::function<void()> fn) {
    handles_.push_back(s_.scheduleAfter(delay, std::move(fn)));
  }
  void cancel(std::size_t id) { handles_[id].cancel(); }
  bool runOne() { return s_.runOne(); }

 private:
  Scheduler s_;
  std::vector<Scheduler::Handle> handles_;
};

class ReferenceBackend {
 public:
  TimePoint now() const { return now_; }
  std::size_t pendingCount() const { return queue_.size(); }
  void schedule(Duration delay, std::function<void()> fn) {
    const Key key{now_ + delay, nextSeq_++};
    keys_.push_back(key);
    queue_.emplace(key, std::move(fn));
  }
  void cancel(std::size_t id) { queue_.erase(keys_[id]); }
  bool runOne() {
    if (queue_.empty()) return false;
    auto it = queue_.begin();
    now_ = it->first.first;
    std::function<void()> fn = std::move(it->second);
    queue_.erase(it);
    fn();
    return true;
  }

 private:
  using Key = std::pair<TimePoint, std::uint64_t>;
  TimePoint now_{};
  std::uint64_t nextSeq_ = 0;
  std::vector<Key> keys_;
  std::map<Key, std::function<void()>> queue_;
};

/// One fired event: its id, its time and the pending count it saw.
struct Step {
  std::size_t id;
  TimePoint at;
  std::size_t pending;
  bool operator==(const Step&) const = default;
};

template <class Backend>
class RandomMix {
 public:
  explicit RandomMix(std::uint64_t seed) : seed_(seed) {}

  std::vector<Step> run() {
    Rng rng(seed_);
    for (int i = 0; i < 32; ++i) spawn(rng);
    do {
      if (rng.bernoulli(0.2)) cancelSome(rng);
    } while (backend_.runOne());
    return log_;
  }

 private:
  static constexpr std::size_t kMaxEvents = 20000;

  void spawn(Rng& rng) {
    if (nextId_ == kMaxEvents) return;
    const std::size_t id = nextId_++;
    Duration delay;
    switch (rng.uniformInt(0, 9)) {
      case 0:
      case 1: delay = Duration{5}; break;
      case 2:
      case 3: delay = rng.bernoulli(0.5) ? Duration{20} : Duration{50}; break;
      case 4:
      case 5: delay = Duration{}; break;
      case 6:
      case 7: delay = Duration{rng.uniformInt(1, 60)}; break;
      case 8: delay = Duration{rng.uniformInt(1020, 1028)}; break;  // horizon
      default: delay = Duration{rng.uniformInt(1029, 3000)}; break;  // heap
    }
    backend_.schedule(delay, [this, id] { fire(id); });
  }

  void cancelSome(Rng& rng) {
    const auto n = rng.uniformInt(1, 3);
    for (std::int64_t i = 0; i < n && nextId_ > 0; ++i) {
      backend_.cancel(static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(nextId_) - 1)));
    }
  }

  void fire(std::size_t id) {
    log_.push_back(Step{id, backend_.now(), backend_.pendingCount()});
    Rng rng(seed_ * 1'000'003 + id);
    const auto children = rng.uniformInt(0, 3);
    for (std::int64_t i = 0; i < children; ++i) spawn(rng);
    if (rng.bernoulli(0.3)) cancelSome(rng);
  }

  std::uint64_t seed_;
  Backend backend_;
  std::size_t nextId_ = 0;
  std::vector<Step> log_;
};

TEST(SchedulerWheel, RandomizedMixMatchesAnAtSeqReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 42u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto wheel = RandomMix<WheelBackend>(seed).run();
    const auto reference = RandomMix<ReferenceBackend>(seed).run();
    ASSERT_GT(reference.size(), 5000u);
    // Equal-time neighbours in the log: ties the two queues had to break.
    std::size_t ties = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      ties += reference[i].at == reference[i - 1].at;
    }
    EXPECT_GT(ties, 1000u);
    // Several laps of the wheel.
    EXPECT_GT(reference.back().at, kTimeZero + 3 * Scheduler::kWheelHorizon);
    ASSERT_EQ(wheel.size(), reference.size());
    for (std::size_t i = 0; i < wheel.size(); ++i) {
      ASSERT_EQ(wheel[i], reference[i]) << "first divergence at step " << i;
    }
  }
}

// --- countdowns (DESIGN.md §11.2) ---

constexpr Duration kSlot{20};

TEST(SchedulerCountdown, FiresWhereTheLastReArmWouldAndCountsDown) {
  Scheduler s;
  std::vector<std::int64_t> seen;
  Scheduler::Handle run;
  s.schedule(TimePoint{100}, [&] {
    run = s.scheduleCountdown(kSlot, 5, [&] { seen.push_back(-1); });
    seen.push_back(run.periodsLeft());
  });
  // Ticks at 120, 140, 160 and 180; the countdown itself runs at 200.
  for (int t : {110, 139, 150, 199}) {
    s.schedule(TimePoint{t}, [&] { seen.push_back(run.periodsLeft()); });
  }
  EXPECT_EQ(s.runAll(), 6u);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 5, 4, 3, 1, -1}));
  EXPECT_EQ(s.now(), TimePoint{200});
  EXPECT_EQ(run.periodsLeft(), 0);
}

TEST(SchedulerCountdown, OnePeriodIsAPlainEvent) {
  Scheduler s;
  int fired = 0;
  auto run = s.scheduleCountdown(kSlot, 1, [&] { ++fired; });
  EXPECT_EQ(run.periodsLeft(), 1);
  EXPECT_EQ(s.pendingCount(), 1u);
  s.runAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), TimePoint{20});
}

TEST(SchedulerCountdown, TickDueNowCountsOnlyIfItWouldHaveRunFirst) {
  // Armed at 100 for four slots: ticks at 120, 140 and 160, the countdown
  // at 180. A slot-by-slot chain schedules tick k at 100 + 20 (k - 1).
  Scheduler s;
  Scheduler::Handle run;
  std::vector<std::pair<char, std::int64_t>> seen;
  auto peek = [&](char who) { seen.emplace_back(who, run.periodsLeft()); };
  s.schedule(TimePoint{100}, [&] {
    run = s.scheduleCountdown(kSlot, 4, [&] { seen.emplace_back('*', 0); });
  });
  // Scheduled before tick 2 was (at 120): runs before it.
  s.schedule(TimePoint{140}, [&] {
    peek('a');
    // Scheduled at 140 like tick 3, by an event older than tick 2: first.
    s.scheduleAfter(kSlot, [&] { peek('c'); });
  });
  s.schedule(TimePoint{125}, [&] {
    // Scheduled after tick 2 was: runs after it.
    s.schedule(TimePoint{140}, [&] {
      peek('b');
      // Scheduled at 140 by an event younger than tick 2: after tick 3.
      s.scheduleAfter(kSlot, [&] { peek('d'); });
    });
  });
  // At 180 the countdown falls between an event scheduled before its last
  // re-arm (160) and one scheduled after it.
  s.schedule(TimePoint{150}, [&] {
    s.schedule(TimePoint{180}, [&] { peek('e'); });
  });
  s.schedule(TimePoint{165}, [&] {
    s.schedule(TimePoint{180}, [&] { peek('f'); });
  });
  s.runAll();
  const std::vector<std::pair<char, std::int64_t>> expected = {
      {'a', 3}, {'b', 2}, {'c', 2}, {'d', 1}, {'e', 1}, {'*', 0}, {'f', 0}};
  EXPECT_EQ(seen, expected);
}

TEST(SchedulerCountdown, LaterArmedCountdownRunsFirst) {
  // Three countdowns end at 200: A armed at 100, then B and C (in that
  // order) at 140. A chain armed later overtakes at its first tick; two
  // armed together keep their arming order.
  Scheduler s;
  std::string order;
  s.schedule(TimePoint{100}, [&] {
    s.scheduleCountdown(kSlot, 5, [&] { order += 'A'; });
  });
  s.schedule(TimePoint{140}, [&] {
    s.scheduleCountdown(kSlot, 3, [&] { order += 'B'; });
    s.scheduleCountdown(kSlot, 3, [&] { order += 'C'; });
  });
  s.runAll();
  EXPECT_EQ(order, "BCA");
}

TEST(SchedulerCountdown, ABurstArmedAtOneInstantKeepsArmingOrder) {
  // A, B and C end at 160 and run in arming order. Between them a countdown
  // armed for 160 is cancelled and its slot re-armed at once for 200 (D):
  // the slot last inserted at 160 now sits at 200, and B and C still go
  // into the 160 list.
  Scheduler s;
  std::vector<std::pair<char, TimePoint>> seen;
  const auto mark = [&](char who) { seen.emplace_back(who, s.now()); };
  s.schedule(TimePoint{100}, [&] {
    s.scheduleCountdown(kSlot, 3, [&] { mark('A'); });
    s.scheduleCountdown(kSlot, 3, [&] { mark('x'); }).cancel();
    s.scheduleCountdown(kSlot, 5, [&] { mark('D'); });
    s.scheduleCountdown(kSlot, 3, [&] { mark('B'); });
    s.scheduleCountdown(kSlot, 3, [&] { mark('C'); });
  });
  s.runAll();
  const std::vector<std::pair<char, TimePoint>> expected = {
      {'A', TimePoint{160}},
      {'B', TimePoint{160}},
      {'C', TimePoint{160}},
      {'D', TimePoint{200}}};
  EXPECT_EQ(seen, expected);
}

TEST(SchedulerCountdown, CountdownArmedAfterTheTicksDueFallsInBehind) {
  // A and B tick at 140 and end at 200. C is armed at 140 by an event
  // scheduled at 130, after A's and B's ticks due at 140 were (120): its
  // first tick comes after theirs at 160, so it ends after both. D, armed
  // at 140 from outside any event after runUntil(140), falls in behind C.
  Scheduler s;
  std::string order;
  s.schedule(TimePoint{100}, [&] {
    s.scheduleCountdown(kSlot, 5, [&] { order += 'A'; });
  });
  s.schedule(TimePoint{120}, [&] {
    s.scheduleCountdown(kSlot, 4, [&] { order += 'B'; });
  });
  s.schedule(TimePoint{130}, [&] {
    s.schedule(TimePoint{140}, [&] {
      s.scheduleCountdown(kSlot, 3, [&] { order += 'C'; });
    });
  });
  s.runUntil(TimePoint{140});
  s.scheduleCountdown(kSlot, 3, [&] { order += 'D'; });
  s.runAll();
  EXPECT_EQ(order, "BACD");
}

// Randomized differential for the ordering rule: setup A counts each run
// down with one scheduleCountdown, setup B with the slot-by-slot chain of
// scheduleAfter(slot) re-arms the countdown replaces. The workload arms
// runs at slot-aligned and unaligned instants, ties real events of delay
// 5, 20, 50 and random delays onto their grids, and freezes runs (reads
// periodsLeft, cancels, later resumes with what was owed) from inside
// events and from inside other runs' ends — as instant carrier sense
// would. Both setups must produce the same log: who ran when, in what
// order, and every periodsLeft read.
//
// Runs are armed by "root" events, scheduled more than a slot ahead, and by
// leaves scheduled less than a slot ahead, whose runs fall in behind the
// ticks due then. No event one slot ahead arms a run or schedules another
// event one slot ahead: the engine's layers never do, and the ordering rule
// leaves those ties open.
class CountdownBackend {
 public:
  TimePoint now() const { return s_.now(); }
  void schedule(Duration delay, std::function<void()> fn) {
    s_.scheduleAfter(delay, std::move(fn));
  }
  void arm(std::size_t run, std::int64_t periods, std::function<void()> fn) {
    if (run >= runs_.size()) runs_.resize(run + 1);
    runs_[run] = s_.scheduleCountdown(kSlot, periods, std::move(fn));
  }
  std::int64_t periodsLeft(std::size_t run) const {
    return runs_[run].periodsLeft();
  }
  void freeze(std::size_t run) { runs_[run].cancel(); }
  bool runOne() { return s_.runOne(); }

 private:
  Scheduler s_;
  std::vector<Scheduler::Handle> runs_;
};

class ChainBackend {
 public:
  TimePoint now() const { return s_.now(); }
  void schedule(Duration delay, std::function<void()> fn) {
    s_.scheduleAfter(delay, std::move(fn));
  }
  void arm(std::size_t run, std::int64_t periods, std::function<void()> fn) {
    if (run >= chains_.size()) chains_.resize(run + 1);
    Chain& c = chains_[run];
    c.left = periods;
    c.fn = std::move(fn);
    c.tick = s_.scheduleAfter(kSlot, [this, run] { tick(run); });
  }
  std::int64_t periodsLeft(std::size_t run) const {
    return chains_[run].tick.pending() ? chains_[run].left : 0;
  }
  void freeze(std::size_t run) { chains_[run].tick.cancel(); }
  bool runOne() { return s_.runOne(); }

 private:
  struct Chain {
    Scheduler::Handle tick;
    std::int64_t left = 0;
    std::function<void()> fn;
  };
  void tick(std::size_t run) {
    Chain& c = chains_[run];
    if (--c.left > 0) {
      c.tick = s_.scheduleAfter(kSlot, [this, run] { tick(run); });
      return;
    }
    std::function<void()> fn = std::move(c.fn);
    fn();
  }

  Scheduler s_;
  std::vector<Chain> chains_;
};

/// One line of a countdown workload's log.
struct Record {
  char kind;  // r root, l leaf, f run end, z freeze, p peek
  std::size_t id;
  TimePoint at;
  std::int64_t value;
  bool operator==(const Record&) const = default;
};

template <class Backend>
class CountdownMix {
 public:
  explicit CountdownMix(std::uint64_t seed) : seed_(seed) {}

  std::vector<Record> run() {
    Rng rng(seed_);
    for (int i = 0; i < 24; ++i) spawnRoot(rng);
    while (backend_.runOne()) {
    }
    return log_;
  }

  /// Freezes and peeks on a run's grid: the tick due then counted, or not.
  std::size_t gridReadsCounted() const { return gridCounted_; }
  std::size_t gridReadsNotCounted() const { return gridNotCounted_; }

 private:
  static constexpr std::size_t kMaxEvents = 30000;

  std::uint64_t streamOf(std::size_t id, std::uint64_t salt) const {
    return seed_ * 1'000'003 + 2 * id + salt;
  }
  void record(char kind, std::size_t id, std::int64_t value = 0) {
    log_.push_back(Record{kind, id, backend_.now(), value});
  }

  void spawnRoot(Rng& rng) {
    if (nextId_ >= kMaxEvents) return;
    const std::size_t id = nextId_++;
    Duration delay;
    const auto pick = rng.uniformInt(0, 19);
    if (pick < 10) {  // the next slot boundary more than a slot ahead, or later
      const Duration sinceBoundary = backend_.now().sinceStart() % kSlot;
      delay = 2 * kSlot - sinceBoundary + kSlot * rng.uniformInt(0, 12);
    } else if (pick == 10) {
      delay = Duration{rng.uniformInt(1024, 2000)};  // the heap
    } else {
      delay = Duration{rng.uniformInt(21, 300)};
    }
    backend_.schedule(delay, [this, id] { root(id); });
  }

  void spawnLeaf(Rng& rng, bool mayNest) {
    if (nextId_ >= kMaxEvents) return;
    const std::size_t id = nextId_++;
    Duration delay;
    switch (rng.uniformInt(0, 3)) {
      case 0: delay = Duration{5}; break;
      case 1: delay = kSlot; break;
      case 2: delay = Duration{50}; break;
      default: delay = Duration{rng.uniformInt(1, 60)}; break;
    }
    // One slot ahead of a parent one slot ahead: the tie the rule leaves
    // open (and the engine never makes).
    const bool offSlot = delay != kSlot;
    backend_.schedule(delay, [this, id, offSlot, mayNest] {
      leaf(id, offSlot, mayNest && offSlot);
    });
  }

  void root(std::size_t id) {
    record('r', id);
    Rng rng(streamOf(id, 0));
    if (rng.bernoulli(0.6)) arm(rng.uniformInt(1, 31));
    if (rng.bernoulli(0.2)) arm(rng.uniformInt(1, 31));  // same instant
    if (!frozen_.empty() && rng.bernoulli(0.5)) {
      const auto i = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(frozen_.size()) - 1));
      arm(frozen_[i]);  // resume with what was owed
      frozen_.erase(frozen_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (rng.bernoulli(0.5)) touch(rng);
    const auto leaves = rng.uniformInt(0, 3);
    for (std::int64_t i = 0; i < leaves; ++i) spawnLeaf(rng, true);
    const auto roots = rng.uniformInt(0, 2);
    for (std::int64_t i = 0; i < roots; ++i) spawnRoot(rng);
  }

  void leaf(std::size_t id, bool offSlot, bool mayNest) {
    record('l', id);
    Rng rng(streamOf(id, 0));
    if (rng.bernoulli(0.7)) touch(rng);
    if (offSlot && rng.bernoulli(0.15)) arm(rng.uniformInt(1, 31));
    if (mayNest && rng.bernoulli(0.3)) {
      if (nextId_ >= kMaxEvents) return;
      const std::size_t child = nextId_++;
      backend_.schedule(kSlot, [this, child] { leaf(child, false, false); });
    }
  }

  void end(std::size_t run) {
    record('f', run);
    running_.erase(std::find(running_.begin(), running_.end(), run));
    Rng rng(streamOf(run, 1));
    if (rng.bernoulli(0.5)) touch(rng);
    if (rng.bernoulli(0.6)) spawnRoot(rng);
  }

  void arm(std::int64_t periods) {
    const std::size_t run = nextRun_++;
    running_.push_back(run);
    armedAt_.push_back(backend_.now());
    owed_.push_back(periods);
    backend_.arm(run, periods, [this, run] { end(run); });
  }

  /// Reads a random running run's periodsLeft and maybe freezes it.
  void touch(Rng& rng) {
    if (running_.empty()) return;
    const auto i = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(running_.size()) - 1));
    const std::size_t run = running_[i];
    const std::int64_t left = backend_.periodsLeft(run);
    const Duration elapsed = backend_.now() - armedAt_[run];
    const std::int64_t ticks = elapsed / kSlot;
    if (ticks > 0 && ticks < owed_[run] && elapsed % kSlot == Duration{}) {
      (left == owed_[run] - ticks ? gridCounted_ : gridNotCounted_) += 1;
    }
    if (rng.bernoulli(0.6)) {
      record('z', run, left);
      backend_.freeze(run);
      running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
      frozen_.push_back(left);
    } else {
      record('p', run, left);
    }
  }

  std::uint64_t seed_;
  Backend backend_;
  std::size_t nextId_ = 0;
  std::size_t nextRun_ = 0;
  std::vector<std::size_t> running_;
  std::vector<std::int64_t> frozen_;
  std::vector<TimePoint> armedAt_;
  std::vector<std::int64_t> owed_;
  std::size_t gridCounted_ = 0;
  std::size_t gridNotCounted_ = 0;
  std::vector<Record> log_;
};

TEST(SchedulerCountdown, MatchesAPerSlotReArmChain) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    CountdownMix<CountdownBackend> countdowns(seed);
    CountdownMix<ChainBackend> chains(seed);
    const auto got = countdowns.run();
    const auto want = chains.run();
    ASSERT_GT(want.size(), 20000u);
    // The workload reaches the rule's cases: run ends that share their
    // instant with other events and with each other, and reads on a grid
    // instant whose tick did and did not run first.
    std::size_t endTies = 0;
    std::size_t endEndTies = 0;
    for (std::size_t i = 1; i < want.size(); ++i) {
      if (want[i].at != want[i - 1].at) continue;
      const bool end = want[i].kind == 'f';
      const bool prevEnd = want[i - 1].kind == 'f';
      endTies += end != prevEnd;
      endEndTies += end && prevEnd;
    }
    EXPECT_GT(endTies, 1000u);
    EXPECT_GT(endEndTies, 200u);
    EXPECT_GT(chains.gridReadsCounted(), 200u);
    EXPECT_GT(chains.gridReadsNotCounted(), 1000u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "first divergence at record " << i;
    }
  }
}

// --- InlineFn small-buffer behaviour ---

TEST(InlineFn, SmallCaptureStoresInline) {
  int x = 0;
  auto small = [&x] { ++x; };
  static_assert(InlineFn::storesInline<decltype(small)>());
  InlineFn fn(small);
  EXPECT_FALSE(fn.heapAllocated());
  fn();
  EXPECT_EQ(x, 1);
}

TEST(InlineFn, OversizedCaptureFallsBackToHeap) {
  std::array<long, 16> big{};  // 128 bytes: over kInlineCapacity
  big[3] = 42;
  long out = 0;
  auto fat = [big, &out] { out = big[3]; };
  static_assert(!InlineFn::storesInline<decltype(fat)>());
  InlineFn fn(std::move(fat));
  EXPECT_TRUE(fn.heapAllocated());
  fn();
  EXPECT_EQ(out, 42);
}

TEST(InlineFn, InlineAndHeapBehaveIdentically) {
  // Differential: the same logic through both storage paths.
  int inlineHits = 0;
  int heapHits = 0;
  std::array<char, InlineFn::kInlineCapacity + 1> pad{};
  InlineFn small([&inlineHits] { ++inlineHits; });
  InlineFn large([&heapHits, pad] {
    ++heapHits;
    (void)pad;
  });
  ASSERT_FALSE(small.heapAllocated());
  ASSERT_TRUE(large.heapAllocated());
  for (int i = 0; i < 3; ++i) {
    small();
    large();
  }
  EXPECT_EQ(inlineHits, 3);
  EXPECT_EQ(heapHits, 3);
}

TEST(InlineFn, MovePreservesCallableBothPaths) {
  int hits = 0;
  std::array<char, 64> pad{};
  InlineFn small([&hits] { ++hits; });
  InlineFn large([&hits, pad] {
    ++hits;
    (void)pad;
  });
  InlineFn small2(std::move(small));
  InlineFn large2(std::move(large));
  EXPECT_FALSE(static_cast<bool>(small));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(large));  // NOLINT(bugprone-use-after-move)
  small2();
  large2();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, MoveOnlyCapturesWork) {
  // std::function could not hold this capture at all.
  auto owned = std::make_unique<int>(9);
  int out = 0;
  InlineFn fn([p = std::move(owned), &out] { out = *p; });
  fn();
  EXPECT_EQ(out, 9);
}

TEST(InlineFn, ResetReleasesCapturedState) {
  auto token = std::make_shared<int>(1);
  InlineFn fn([token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  fn.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFn, HotPathCapturesFitTheBuffer) {
  // The audit the engine relies on: this + refcounted packet + a size —
  // the largest capture the MAC/PHY/net hot paths schedule — stays inline.
  struct Host;
  [[maybe_unused]] auto macLike = [](Host* self, std::shared_ptr<int> pkt,
                                     std::size_t bytes) {
    return [self, pkt, bytes] { (void)self; (void)bytes; };
  };
  using MacCapture = decltype(macLike(nullptr, nullptr, 0));
  static_assert(InlineFn::storesInline<MacCapture>());
  static_assert(sizeof(MacCapture) <= InlineFn::kInlineCapacity);
}

// --- trivial relocation (DESIGN.md §11.3) ---

/// An engine-shaped capture: an owner pointer plus ids, re-arming itself
/// like a backoff slot.
struct Rearm {
  Scheduler* scheduler;
  std::vector<std::uint64_t>* seen;
  std::uint64_t tag;
  std::uint32_t left;
  void operator()() const {
    seen->push_back(tag + left);
    if (left > 0) {
      scheduler->scheduleAfter(Duration{20},
                               Rearm{scheduler, seen, tag, left - 1});
    }
  }
};

TEST(InlineFn, TrivialCaptureSurvivesScheduleFireAndRearm) {
  static_assert(InlineFn::relocatesTrivially<Rearm>());
  Scheduler scheduler;
  std::vector<std::uint64_t> seen;
  InlineFn fn(Rearm{&scheduler, &seen, 0xABCD'0000'0000'0000ULL, 3});
  InlineFn moved(std::move(fn));
  InlineFn assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(static_cast<bool>(moved));  // NOLINT(bugprone-use-after-move)
  scheduler.schedule(TimePoint{7}, std::move(assigned));
  EXPECT_EQ(scheduler.runAll(), 4u);
  const std::uint64_t tag = 0xABCD'0000'0000'0000ULL;
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{tag + 3, tag + 2, tag + 1, tag}));
  EXPECT_EQ(scheduler.now(), TimePoint{67});
}

/// Counts live destructions: a moved-from husk does not count.
struct Counted {
  int* destroyed;
  int* moves;
  int* hits;
  bool live = true;
  Counted(int* d, int* m, int* h) : destroyed(d), moves(m), hits(h) {}
  Counted(Counted&& other) noexcept
      : destroyed(other.destroyed), moves(other.moves), hits(other.hits) {
    other.live = false;
    ++*moves;
  }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (live) ++*destroyed;
  }
  void operator()() { ++*hits; }
};

TEST(InlineFn, NonTrivialCaptureRelocatesThroughItsOpsAndDiesOnce) {
  static_assert(InlineFn::storesInline<Counted>());
  static_assert(!InlineFn::relocatesTrivially<Counted>());
  int destroyed = 0;
  int moves = 0;
  int hits = 0;
  {
    Scheduler scheduler;
    InlineFn fn(Counted{&destroyed, &moves, &hits});
    InlineFn moved(std::move(fn));
    const int before = moves;
    scheduler.scheduleAfter(Duration{5}, std::move(moved));
    EXPECT_GT(moves, before);  // relocated by its move constructor
    EXPECT_EQ(destroyed, 0);
    scheduler.runAll();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(destroyed, 1);
  }
  EXPECT_EQ(destroyed, 1);
  // Cancelled and reset callables die once too.
  {
    Scheduler scheduler;
    Scheduler::Handle h =
        scheduler.scheduleAfter(Duration{5}, Counted{&destroyed, &moves, &hits});
    h.cancel();
    EXPECT_EQ(destroyed, 2);
    InlineFn fn(Counted{&destroyed, &moves, &hits});
    fn.reset();
    EXPECT_EQ(destroyed, 3);
  }
  EXPECT_EQ(destroyed, 3);
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, AllocationCountsAndStorageAreUnchanged) {
  // The capture shapes the engine schedules: `[this]`, `[this, id]`.
  struct Owner;
  Owner* self = nullptr;
  std::uint32_t slot = 3;
  auto bare = [self] { (void)self; };
  auto withId = [self, slot] { (void)self, (void)slot; };
  static_assert(InlineFn::storesInline<decltype(bare)>());
  static_assert(InlineFn::storesInline<decltype(withId)>());
  static_assert(InlineFn::relocatesTrivially<decltype(bare)>());
  static_assert(InlineFn::relocatesTrivially<decltype(withId)>());
  auto shared = std::make_shared<int>(1);
  auto owning = [shared] { (void)shared; };
  static_assert(InlineFn::storesInline<decltype(owning)>());
  static_assert(!InlineFn::relocatesTrivially<decltype(owning)>());
  std::array<char, InlineFn::kInlineCapacity + 1> pad{};
  auto fat = [pad] { (void)pad; };
  static_assert(!InlineFn::storesInline<decltype(fat)>());
  static_assert(!InlineFn::relocatesTrivially<decltype(fat)>());

  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  Scheduler scheduler;
  scheduler.scheduleAfter(Duration{1}, withId);
  scheduler.scheduleAfter(Duration{2}, owning);
  scheduler.scheduleAfter(Duration{3}, fat);
  InlineFn heap(fat);
  InlineFn moved(std::move(heap));
  EXPECT_TRUE(moved.heapAllocated());
  scheduler.runAll();
  // One count per construction; moves and relocations add none.
  EXPECT_EQ(registry.counter(obs::Counter::kEngineAllocCallbackInline), 2u);
  EXPECT_EQ(registry.counter(obs::Counter::kEngineAllocCallbackHeap), 2u);
  EXPECT_EQ(shared.use_count(), 2);  // `owning` still holds one
}

}  // namespace
}  // namespace manet::sim
