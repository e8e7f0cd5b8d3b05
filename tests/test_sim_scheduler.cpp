#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
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

}  // namespace
}  // namespace manet::sim
