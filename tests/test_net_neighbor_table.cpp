#include "net/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/packet.hpp"

namespace manet::net {
namespace {

using sim::kSecond;

constexpr HostId H(std::uint32_t id) { return HostId{id}; }
constexpr sim::TimePoint T(std::int64_t ticks) { return sim::TimePoint{ticks}; }
constexpr sim::TimePoint T(sim::Duration sinceStart) {
  return sim::kTimeZero + sinceStart;
}

std::vector<HostId> ids(std::initializer_list<std::uint32_t> vs) {
  std::vector<HostId> out;
  for (std::uint32_t v : vs) out.push_back(HostId{v});
  return out;
}

Packet hello(std::uint32_t sender, std::vector<HostId> neighbors = {},
             sim::Duration interval = 1 * kSecond) {
  Packet p;
  p.type = PacketType::kHello;
  p.sender = HostId{sender};
  p.helloNeighbors =
      std::make_shared<const std::vector<HostId>>(std::move(neighbors));
  p.helloInterval = interval;
  return p;
}

TEST(NeighborTable, StartsEmpty) {
  NeighborTable t;
  EXPECT_EQ(t.neighborCount(T(0)), 0);
  EXPECT_TRUE(t.neighborIds(T(0)).empty());
}

TEST(NeighborTable, HelloInsertsNeighbor) {
  NeighborTable t;
  t.onHello(H(7), hello(7), T(1 * kSecond));
  EXPECT_EQ(t.neighborCount(T(1 * kSecond)), 1);
  EXPECT_TRUE(t.contains(H(7), T(1 * kSecond)));
}

TEST(NeighborTable, EntryExpiresAfterTwoIntervals) {
  NeighborTable t;
  t.onHello(H(7), hello(7, {}, 1 * kSecond), T(0));
  EXPECT_TRUE(t.contains(H(7), T(2 * kSecond)));          // exactly 2 intervals: kept
  EXPECT_FALSE(t.contains(H(7), T(2 * kSecond + sim::kMicrosecond)));     // just past: dropped
}

TEST(NeighborTable, FreshHelloRefreshesExpiry) {
  NeighborTable t;
  t.onHello(H(7), hello(7), T(0));
  t.onHello(H(7), hello(7), T(1 * kSecond));
  EXPECT_TRUE(t.contains(H(7), T(3 * kSecond)));
  EXPECT_FALSE(t.contains(H(7), T(3 * kSecond + sim::kMicrosecond)));
}

TEST(NeighborTable, ExpiryUsesSenderAnnouncedInterval) {
  NeighborTable t;
  t.onHello(H(7), hello(7, {}, 10 * kSecond), T(0));  // DHI host with long interval
  EXPECT_TRUE(t.contains(H(7), T(19 * kSecond)));
  EXPECT_FALSE(t.contains(H(7), T(21 * kSecond)));
}

TEST(NeighborTable, RefreshWithShorterIntervalExpiresAtTheNewEarlierTime) {
  // Under dynamic HELLO a refresh may announce a shorter interval: the
  // entry must then leave at its new, earlier deadline, even though every
  // deadline known before the refresh lies far later.
  NeighborTable t;
  t.onHello(H(7), hello(7, {}, 10 * kSecond), T(0));  // expires at 20 s
  t.onHello(H(8), hello(8, {}, 10 * kSecond), T(0));
  t.onHello(H(7), hello(7, {}, 1 * kSecond), T(1 * kSecond));  // now 3 s
  EXPECT_TRUE(t.contains(H(7), T(2 * kSecond)));
  EXPECT_TRUE(t.contains(H(7), T(3 * kSecond)));
  EXPECT_FALSE(t.contains(H(7), T(3 * kSecond + sim::kMicrosecond)));
  EXPECT_TRUE(t.contains(H(8), T(3 * kSecond + sim::kMicrosecond)));
}

TEST(NeighborTable, StaggeredExpiriesLeaveOneAtATime) {
  NeighborTable t;
  t.onHello(H(1), hello(1, {}, 1 * kSecond), T(0));  // expires at 2 s
  t.onHello(H(2), hello(2, {}, 2 * kSecond), T(0));  // 4 s
  t.onHello(H(3), hello(3, {}, 3 * kSecond), T(0));  // 6 s
  EXPECT_EQ(t.neighborCount(T(2 * kSecond)), 3);
  EXPECT_EQ(t.neighborIds(T(3 * kSecond)), ids({2, 3}));
  EXPECT_EQ(t.neighborIds(T(4 * kSecond)), ids({2, 3}));
  EXPECT_EQ(t.neighborIds(T(5 * kSecond)), ids({3}));
  EXPECT_EQ(t.neighborCount(T(7 * kSecond)), 0);
  EXPECT_EQ(t.changeEventsInWindow(T(7 * kSecond)), 6);  // 3 joins, 3 leaves
}

TEST(NeighborTable, ClearedTableRelearnsAndExpiresNormally) {
  NeighborTable t;
  t.onHello(H(1), hello(1, {}, 1 * kSecond), T(0));
  t.clear();
  t.onHello(H(2), hello(2, {}, 5 * kSecond), T(1 * kSecond));  // 11 s
  EXPECT_EQ(t.neighborIds(T(10 * kSecond)), ids({2}));
  EXPECT_EQ(t.neighborCount(T(11 * kSecond + sim::kMicrosecond)), 0);
}

TEST(NeighborTable, FallbackIntervalWhenNotAnnounced) {
  NeighborTable t(10 * kSecond, /*fallbackInterval=*/2 * kSecond);
  t.onHello(H(7), hello(7, {}, sim::Duration{}), T(0));  // interval 0 = not announced
  EXPECT_TRUE(t.contains(H(7), T(4 * kSecond)));
  EXPECT_FALSE(t.contains(H(7), T(4 * kSecond + sim::kMicrosecond)));
}

TEST(NeighborTable, TwoHopSetsStored) {
  NeighborTable t;
  t.onHello(H(7), hello(7, ids({1, 2, 3})), T(0));
  const auto* n = t.neighborsOf(H(7), T(kSecond));
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(*n, ids({1, 2, 3}));
}

TEST(NeighborTable, TwoHopSetsUpdatedByNewerHello) {
  NeighborTable t;
  t.onHello(H(7), hello(7, ids({1, 2})), T(0));
  t.onHello(H(7), hello(7, ids({3})), T(kSecond));
  EXPECT_EQ(*t.neighborsOf(H(7), T(kSecond)), ids({3}));
}

TEST(NeighborTable, ListlessHelloGivesEmptyTwoHopSet) {
  NeighborTable t;
  Packet p = hello(7);
  p.helloNeighbors = nullptr;
  t.onHello(H(7), p, T(0));
  const auto* n = t.neighborsOf(H(7), T(0));
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->empty());
}

TEST(NeighborTable, ReceiversShareTheHellosList) {
  NeighborTable a;
  NeighborTable b;
  const Packet p = hello(7, ids({1, 2, 3}));
  a.onHello(H(7), p, T(0));
  b.onHello(H(7), p, T(0));
  // Both tables hold the list the packet carries, not copies of it.
  EXPECT_EQ(a.neighborsOf(H(7), T(0)), p.helloNeighbors.get());
  EXPECT_EQ(b.neighborsOf(H(7), T(0)), p.helloNeighbors.get());
}

TEST(NeighborTable, LaterHelloLeavesHeldListsUnchanged) {
  NeighborTable a;
  NeighborTable b;
  const Packet first = hello(7, ids({1, 2}));
  a.onHello(H(7), first, T(0));
  b.onHello(H(7), first, T(0));
  // Only `a` hears the sender's next HELLO.
  a.onHello(H(7), hello(7, ids({3})), T(kSecond));
  EXPECT_EQ(*a.neighborsOf(H(7), T(kSecond)), ids({3}));
  EXPECT_EQ(b.neighborsOf(H(7), T(kSecond)), first.helloNeighbors.get());
  EXPECT_EQ(*b.neighborsOf(H(7), T(kSecond)), ids({1, 2}));
  EXPECT_EQ(*first.helloNeighbors, ids({1, 2}));
}

TEST(NeighborTable, UnknownNeighborHasNoTwoHopSet) {
  NeighborTable t;
  EXPECT_EQ(t.neighborsOf(H(9), T(0)), nullptr);
}

TEST(NeighborTable, NeighborIdsListsCurrentNeighbors) {
  NeighborTable t;
  t.onHello(H(1), hello(1), T(0));
  t.onHello(H(2), hello(2), T(0));
  t.onHello(H(3), hello(3, {}, 10 * kSecond), T(0));
  auto got = t.neighborIds(T(3 * kSecond));  // 1 and 2 expired, 3 remains
  EXPECT_EQ(got, ids({3}));
}

TEST(NeighborTable, JoinRecordsChangeEvent) {
  NeighborTable t;
  t.onHello(H(1), hello(1), T(0));
  EXPECT_EQ(t.changeEventsInWindow(T(0)), 1);
  t.onHello(H(1), hello(1), T(kSecond));  // refresh, not a join
  EXPECT_EQ(t.changeEventsInWindow(T(kSecond)), 1);
}

TEST(NeighborTable, LeaveRecordsChangeEvent) {
  NeighborTable t;
  t.onHello(H(1), hello(1), T(0));
  t.purge(T(5 * kSecond));  // expired at 2 s; purged now
  EXPECT_EQ(t.changeEventsInWindow(T(5 * kSecond)), 2);  // join + leave
}

TEST(NeighborTable, ChangeEventsAgeOutOfWindow) {
  NeighborTable t(10 * kSecond);
  t.onHello(H(1), hello(1, {}, 30 * kSecond), T(0));  // long-lived entry
  EXPECT_EQ(t.changeEventsInWindow(T(0)), 1);
  EXPECT_EQ(t.changeEventsInWindow(T(10 * kSecond)), 1);  // still inside window
  EXPECT_EQ(t.changeEventsInWindow(T(10 * kSecond + sim::kMicrosecond)), 0);
}

TEST(NeighborTable, NeighborhoodVariationFormula) {
  // nv = changes / (|N| * 10 s): 2 neighbors, 2 join events => 2/(2*10)=0.1.
  NeighborTable t;
  t.onHello(H(1), hello(1, {}, 30 * kSecond), T(0));
  t.onHello(H(2), hello(2, {}, 30 * kSecond), T(0));
  EXPECT_DOUBLE_EQ(t.neighborhoodVariation(T(kSecond)), 2.0 / (2.0 * 10.0));
}

TEST(NeighborTable, VariationZeroWhenStable) {
  NeighborTable t;
  t.onHello(H(1), hello(1, {}, 30 * kSecond), T(0));
  // 11 s later the join event left the window; the entry is still alive.
  EXPECT_DOUBLE_EQ(t.neighborhoodVariation(T(11 * kSecond)), 0.0);
}

TEST(NeighborTable, VariationWithEmptyNeighborhoodUsesUnitDenominator) {
  NeighborTable t;
  t.onHello(H(1), hello(1), T(0));
  t.purge(T(5 * kSecond));  // join+leave, table now empty
  EXPECT_DOUBLE_EQ(t.neighborhoodVariation(T(5 * kSecond)), 2.0 / 10.0);
}

TEST(NeighborTable, PurgeIsStableUnderRepetition) {
  NeighborTable t;
  t.onHello(H(1), hello(1), T(0));
  t.purge(T(5 * kSecond));
  const int events = t.changeEventsInWindow(T(5 * kSecond));
  t.purge(T(5 * kSecond));
  t.purge(T(5 * kSecond));
  EXPECT_EQ(t.changeEventsInWindow(T(5 * kSecond)), events);
}

}  // namespace
}  // namespace manet::net
