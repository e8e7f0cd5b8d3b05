#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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

// --- fixed-delay lanes (DESIGN.md §11.2) ---

TEST(SchedulerLanes, LaneEventsRunInTimeOrderWithHeapEvents) {
  Scheduler s;
  s.addLane(Duration{20});
  s.addLane(Duration{20});  // a second declaration is a no-op
  std::vector<int> order;
  s.schedule(TimePoint{30}, [&] { order.push_back(30); });             // heap
  s.scheduleAfter(Duration{20}, [&] { order.push_back(20); });         // lane
  s.schedule(TimePoint{10}, [&] {
    order.push_back(10);
    s.scheduleAfter(Duration{20}, [&] { order.push_back(31); });       // lane
  });
  s.runAll();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30, 31}));
  EXPECT_EQ(s.now(), TimePoint{30});
}

TEST(SchedulerLanes, TiesBetweenLaneAndHeapRunInScheduleOrder) {
  // Three events due at t = 10: a heap event scheduled at t = 0, a lane
  // event scheduled at t = 5 and a heap event scheduled at t = 7. They must
  // interleave across the two queues by seq alone.
  Scheduler s;
  s.addLane(Duration{5});
  std::vector<char> order;
  s.schedule(TimePoint{10}, [&] { order.push_back('a'); });
  s.schedule(TimePoint{5}, [&] {
    s.scheduleAfter(Duration{5}, [&] { order.push_back('b'); });
  });
  s.schedule(TimePoint{7}, [&] {
    s.schedule(TimePoint{10}, [&] { order.push_back('c'); });
  });
  s.runAll();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(SchedulerLanes, PendingCountSkipsDeadLaneEntries) {
  Scheduler s;
  s.addLane(Duration{20});
  int fired = 0;
  auto a = s.scheduleAfter(Duration{20}, [&] { ++fired; });
  auto b = s.scheduleAfter(Duration{20}, [&] { fired += 10; });
  auto c = s.scheduleAfter(Duration{20}, [&] { fired += 100; });
  auto d = s.scheduleAfter(Duration{20}, [&] { fired += 1000; });
  EXPECT_EQ(s.pendingCount(), 4u);
  b.cancel();  // behind the head: stays queued, dead
  c.cancel();
  EXPECT_EQ(s.pendingCount(), 2u);
  EXPECT_FALSE(b.pending());
  EXPECT_TRUE(a.pending());
  a.cancel();  // the head: dropped with the dead entries behind it
  EXPECT_EQ(s.pendingCount(), 1u);
  b.cancel();  // stale
  EXPECT_EQ(s.pendingCount(), 1u);
  EXPECT_TRUE(d.pending());
  EXPECT_TRUE(s.runOne());
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(s.pendingCount(), 0u);
  EXPECT_FALSE(s.runOne());
}

TEST(SchedulerLanes, CancelledLaneEntryNeverFiresOnARecycledSlot) {
  // The cancelled entry's slot is recycled by the next lane event; the dead
  // ring entry still names that slot, but with the old generation.
  Scheduler s;
  s.addLane(Duration{20});
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

TEST(SchedulerLanes, LaneCancelReleasesTheCallbackPromptly) {
  Scheduler s;
  s.addLane(Duration{20});
  auto token = std::make_shared<int>(7);
  s.scheduleAfter(Duration{20}, [] {});  // keeps the cancelled one off the head
  auto h = s.scheduleAfter(Duration{20}, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  h.cancel();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SchedulerLanes, RingWrapsAndGrowsInOrder) {
  // Fill the ring part way, drain most of it so the head moves on, then
  // push past the end (wrap-around) and past the capacity (growth, which
  // must unwrap the live span in order). Dead entries ride along.
  Scheduler s;
  s.addLane(Duration{20});
  std::vector<int> order;
  std::vector<Scheduler::Handle> handles;
  auto push = [&](int id) {
    handles.push_back(
        s.scheduleAfter(Duration{20}, [&order, id] { order.push_back(id); }));
  };
  for (int i = 0; i < 200; ++i) push(i);  // all due at t = 20
  for (int i = 0; i < 150; ++i) ASSERT_TRUE(s.runOne());
  EXPECT_EQ(s.now(), TimePoint{20});
  for (int i = 200; i < 1200; ++i) push(i);  // due at t = 40, wraps, grows
  for (int i = 160; i < 1200; i += 7) handles[static_cast<std::size_t>(i)].cancel();
  s.schedule(TimePoint{40}, [&] { order.push_back(-1); });  // heap, last seq
  std::size_t live = 1;
  for (int i = 150; i < 1200; ++i) live += (i < 160 || (i - 160) % 7 != 0);
  EXPECT_EQ(s.pendingCount(), live);
  s.runAll();

  std::vector<int> expected;
  for (int i = 0; i < 1200; ++i) {
    if (i < 160 || (i - 160) % 7 != 0) expected.push_back(i);
  }
  expected.push_back(-1);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(s.pendingCount(), 0u);
}

// Randomized differential: a scheduler with three lanes against a plain
// (at, seq)-ordered reference queue. Each fired event, seeded by its own id,
// schedules children at lane, zero and random delays (small, so lane and
// heap events tie often) and cancels random handles, stale ones included;
// the run loop cancels between events too. Both sides must fire the same ids
// at the same times with the same pending counts.
class LaneBackend {
 public:
  LaneBackend() {
    for (int delay : {5, 20, 50}) s_.addLane(Duration{delay});
  }
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
    switch (rng.uniformInt(0, 3)) {
      case 0: delay = Duration{5}; break;
      case 1: delay = rng.bernoulli(0.5) ? Duration{20} : Duration{50}; break;
      case 2: delay = Duration{}; break;
      default: delay = Duration{rng.uniformInt(1, 60)}; break;
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

TEST(SchedulerLanes, RandomizedMixMatchesAnAtSeqReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 42u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const auto lanes = RandomMix<LaneBackend>(seed).run();
    const auto reference = RandomMix<ReferenceBackend>(seed).run();
    ASSERT_GT(reference.size(), 5000u);
    // Equal-time neighbours in the log: ties the two queues had to break.
    std::size_t ties = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      ties += reference[i].at == reference[i - 1].at;
    }
    EXPECT_GT(ties, 1000u);
    ASSERT_EQ(lanes.size(), reference.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      ASSERT_EQ(lanes[i], reference[i]) << "first divergence at step " << i;
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
  scheduler.addLane(Duration{20});  // re-arms ride a lane, the first the heap
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
