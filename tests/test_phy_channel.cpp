#include "phy/channel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace manet::phy {
namespace {

using net::HostId;

net::Packet dataPacket(HostId sender) {
  return net::makeDataPacket(net::BroadcastId{sender, net::BroadcastSeq{0}}, sender);
}

/// Records everything the channel tells one node.
class Probe : public Channel::Listener {
 public:
  struct Rx {
    HostId from;
    bool corrupted;
    sim::TimePoint at;
    DropReason reason;
  };
  void onMediumBusy() override { ++busyEvents; }
  void onMediumIdle() override { ++idleEvents; }
  void onFrameReceived(const Frame& frame, DropReason drop) override {
    receptions.push_back(
        {frame.src, drop != DropReason::kNone, frame.txEnd, drop});
    if (onRx) onRx(frame);
  }
  void onTxComplete() override { ++txCompleted; }

  int busyEvents = 0;
  int idleEvents = 0;
  int txCompleted = 0;
  std::vector<Rx> receptions;
  /// Optional hook run after recording a reception (re-entrancy tests).
  std::function<void(const Frame&)> onRx;
};

/// A fixture with a scheduler, a 500 m channel, and helpers to place nodes.
class ChannelTest : public ::testing::Test {
 protected:
  Channel& makeChannel(PhyParams params = {}) {
    channel_ = std::make_unique<Channel>(scheduler_, params);
    return *channel_;
  }

  HostId addNode(geom::Vec2 pos) {
    const HostId id{static_cast<std::uint32_t>(probes_.size())};
    probes_.push_back(std::make_unique<Probe>());
    channel_->attach(id, probes_.back().get(), [pos] { return pos; });
    return id;
  }

  Probe& probe(HostId id) { return *probes_[id.value()]; }

  sim::Scheduler scheduler_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Probe>> probes_;
};

TEST_F(ChannelTest, FrameAirtimeMatchesDsssTiming) {
  PhyParams p;
  // 280 bytes at 1 Mb/s = 2240 us, plus 144 + 48 us of PLCP.
  EXPECT_EQ(p.frameAirtime(280), sim::Duration{2432});
  EXPECT_EQ(p.frameAirtime(0), sim::Duration{192});
}

TEST_F(ChannelTest, InRangeNodeReceivesIntactFrame) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({400, 0});
  const sim::TimePoint end = ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(b).receptions.size(), 1u);
  EXPECT_EQ(probe(b).receptions[0].from, a);
  EXPECT_FALSE(probe(b).receptions[0].corrupted);
  EXPECT_EQ(probe(b).receptions[0].at, end);
}

TEST_F(ChannelTest, OutOfRangeNodeHearsNothing) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId far = addNode({501, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  EXPECT_TRUE(probe(far).receptions.empty());
  EXPECT_EQ(probe(far).busyEvents, 0);
}

TEST_F(ChannelTest, RangeBoundaryIsInclusive) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId edge = addNode({500, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  EXPECT_EQ(probe(edge).receptions.size(), 1u);
}

TEST_F(ChannelTest, TransmitterDoesNotReceiveItsOwnFrame) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  EXPECT_TRUE(probe(a).receptions.empty());
  EXPECT_EQ(probe(a).txCompleted, 1);
}

TEST_F(ChannelTest, CarrierBusyDuringTransmission) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({100, 0});
  EXPECT_FALSE(ch.carrierBusy(b));
  ch.transmit(a, dataPacket(a), 280);
  EXPECT_TRUE(ch.carrierBusy(a));   // own transmission asserts energy at once
  EXPECT_FALSE(ch.carrierBusy(b));  // ...but b can't sense it yet (RF delay)
  scheduler_.runUntil(sim::kTimeZero + PhyParams{}.carrierSenseDelay);
  EXPECT_TRUE(ch.carrierBusy(b));
  EXPECT_TRUE(ch.isTransmitting(a));
  scheduler_.runAll();
  EXPECT_FALSE(ch.carrierBusy(a));
  EXPECT_FALSE(ch.carrierBusy(b));
  EXPECT_FALSE(ch.isTransmitting(a));
  EXPECT_EQ(probe(b).busyEvents, 1);
  EXPECT_EQ(probe(b).idleEvents, 1);
}

TEST_F(ChannelTest, OverlappingFramesCollideAtCommonReceiver) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});    // hidden from a (dist 900 > 500)
  const HostId mid = addNode({450, 0});  // hears both
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});  // b starts mid-frame: hidden-terminal collision
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 2u);
  EXPECT_TRUE(probe(mid).receptions[0].corrupted);
  EXPECT_TRUE(probe(mid).receptions[1].corrupted);
}

TEST_F(ChannelTest, NonOverlappingFramesBothDeliver) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  const HostId mid = addNode({450, 0});
  const sim::TimePoint end = ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(end);  // a's frame completed
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 2u);
  EXPECT_FALSE(probe(mid).receptions[0].corrupted);
  EXPECT_FALSE(probe(mid).receptions[1].corrupted);
}

TEST_F(ChannelTest, CollisionIsLocalToOverlapArea) {
  // d hears only b, so b's frame is intact there even though it collided
  // with a's frame at mid.
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  addNode({450, 0});                       // mid: collision zone
  const HostId d = addNode({1300, 0});     // only in b's range
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(d).receptions.size(), 1u);
  EXPECT_EQ(probe(d).receptions[0].from, b);
  EXPECT_FALSE(probe(d).receptions[0].corrupted);
}

TEST_F(ChannelTest, HalfDuplexTransmitterLosesIncomingFrame) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({400, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{50});
  ch.transmit(b, dataPacket(b), 280);  // b starts while a's frame arrives
  scheduler_.runAll();
  // b was transmitting during part of a's frame: the frame is corrupt at b.
  ASSERT_EQ(probe(b).receptions.size(), 1u);
  EXPECT_TRUE(probe(b).receptions[0].corrupted);
  // and symmetric: a transmitting while b's frame arrives.
  ASSERT_EQ(probe(a).receptions.size(), 1u);
  EXPECT_TRUE(probe(a).receptions[0].corrupted);
}

TEST_F(ChannelTest, BusyIdleTransitionsCountOverlaps) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({200, 0});
  const HostId c = addNode({400, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  // c heard both overlapping frames: exactly one busy->idle cycle.
  EXPECT_EQ(probe(c).busyEvents, 1);
  EXPECT_EQ(probe(c).idleEvents, 1);
  EXPECT_EQ(probe(c).receptions.size(), 2u);
}

TEST_F(ChannelTest, CollisionsDisabledDeliversOverlappingFrames) {
  Channel& ch = makeChannel();
  ch.setCollisionsEnabled(false);
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  const HostId mid = addNode({450, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 2u);
  EXPECT_FALSE(probe(mid).receptions[0].corrupted);
  EXPECT_FALSE(probe(mid).receptions[1].corrupted);
}

TEST_F(ChannelTest, StatisticsCounters) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({900, 0});
  addNode({450, 0});
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{100});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runAll();
  EXPECT_EQ(ch.framesTransmitted(), 2u);
  // mid got 2 corrupted; a and b each got 1 corrupted (half-duplex? no --
  // a and b are out of range of each other). So only mid's two receptions.
  EXPECT_EQ(ch.framesCorrupted(), 2u);
  EXPECT_EQ(ch.framesDelivered(), 0u);
}

TEST_F(ChannelTest, NodesInRangeExcludesSelf) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({300, 0});
  addNode({5000, 5000});
  const auto inRange = ch.nodesInRange(a);
  ASSERT_EQ(inRange.size(), 1u);
  EXPECT_EQ(inRange[0], b);
}

TEST_F(ChannelTest, SnapshotPositions) {
  makeChannel();
  addNode({1, 2});
  addNode({3, 4});
  const auto snap = channel_->snapshotPositions();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0], (geom::Vec2{1, 2}));
  EXPECT_EQ(snap[1], (geom::Vec2{3, 4}));
}

TEST_F(ChannelTest, PositionFunctionIsLive) {
  Channel& ch = makeChannel();
  geom::Vec2 pos{0, 0};
  probes_.push_back(std::make_unique<Probe>());
  ch.attach(HostId{0}, probes_.back().get(), [&pos] { return pos; });
  EXPECT_EQ(ch.positionOf(HostId{0}), (geom::Vec2{0, 0}));
  pos = {9, 9};
  EXPECT_EQ(ch.positionOf(HostId{0}), (geom::Vec2{9, 9}));
}

TEST_F(ChannelTest, ThreeWayCollisionCorruptsEverything) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({0, 600});
  const HostId c = addNode({600, 0});
  const HostId mid = addNode({300, 300});  // in range of all three
  // a-b, a-c, b-c pairwise distances are 600+ m: mutually hidden.
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runUntil(sim::TimePoint{10});
  ch.transmit(b, dataPacket(b), 280);
  scheduler_.runUntil(sim::TimePoint{20});
  ch.transmit(c, dataPacket(c), 280);
  scheduler_.runAll();
  ASSERT_EQ(probe(mid).receptions.size(), 3u);
  for (const auto& rx : probe(mid).receptions) EXPECT_TRUE(rx.corrupted);
}

TEST_F(ChannelTest, DoubleAttachIsRejected) {
  Channel& ch = makeChannel();
  addNode({0, 0});
  Probe extra;
  EXPECT_DEATH(ch.attach(HostId{0}, &extra, [] { return geom::Vec2{}; }),
               "Precondition");
}

TEST_F(ChannelTest, TransmitWhileTransmittingIsRejected) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  ch.transmit(a, dataPacket(a), 280);
  EXPECT_DEATH(ch.transmit(a, dataPacket(a), 280), "Precondition");
}

// --- frame-centric reception (DESIGN.md §11.6) -------------------------------

TEST_F(ChannelTest, OneTransmitSchedulesOneSenseAndOneEndEvent) {
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  for (int i = 1; i <= 6; ++i) addNode({50.0 * i, 0});
  ch.transmit(a, dataPacket(a), 280);
  EXPECT_EQ(registry.counter(obs::Counter::kSchedulerScheduled), 2u);
  scheduler_.runAll();
  EXPECT_EQ(registry.counter(obs::Counter::kSchedulerExecuted), 2u);
  for (std::uint32_t i = 1; i <= 6; ++i) {
    ASSERT_EQ(probe(HostId{i}).receptions.size(), 1u);
    EXPECT_FALSE(probe(HostId{i}).receptions[0].corrupted);
    EXPECT_EQ(probe(HostId{i}).busyEvents, 1);
    EXPECT_EQ(probe(HostId{i}).idleEvents, 1);
  }
  EXPECT_EQ(probe(a).txCompleted, 1);
}

TEST_F(ChannelTest, InstantCarrierSenseSchedulesOnlyTheEndEvent) {
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  PhyParams params;
  params.carrierSenseDelay = sim::Duration{};
  Channel& ch = makeChannel(params);
  const HostId a = addNode({0, 0});
  const HostId b = addNode({100, 0});
  const HostId c = addNode({200, 0});
  ch.transmit(a, dataPacket(a), 280);
  EXPECT_EQ(registry.counter(obs::Counter::kSchedulerScheduled), 1u);
  // Energy is raised synchronously inside transmit().
  EXPECT_TRUE(ch.carrierBusy(b));
  EXPECT_TRUE(ch.carrierBusy(c));
  scheduler_.runAll();
  EXPECT_EQ(probe(b).receptions.size(), 1u);
  EXPECT_EQ(probe(c).receptions.size(), 1u);
  EXPECT_FALSE(ch.carrierBusy(b));
}

TEST_F(ChannelTest, ReentrantTransmitFromEndBatchGivesSerialVerdicts) {
  // b (an earlier receiver of a's frame) starts two transmissions from its
  // reception callback, before the end batch reaches c and d: d itself
  // goes on the air (half-duplex loss of a's frame there) and d's energy
  // reaches c (collision there) — the verdicts per-receiver completion
  // events gave in the same serial order.
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({100, 0});
  const HostId c = addNode({200, 0});
  const HostId d = addNode({300, 0});
  const HostId e = addNode({700, 0});  // hears only d among the senders
  const sim::TimePoint end = ch.transmit(a, dataPacket(a), 280);
  bool fired = false;
  probe(b).onRx = [&](const Frame& frame) {
    if (fired) return;
    fired = true;
    ch.transmit(d, dataPacket(d), 280);
    ch.transmit(b, dataPacket(b), 280);
    // The frame being delivered did not move while transmit() pooled two
    // more air frames.
    EXPECT_EQ(frame.src, a);
    EXPECT_EQ(frame.packet.sender, a);
    EXPECT_EQ(frame.packet.bid, (net::BroadcastId{a, net::BroadcastSeq{0}}));
    EXPECT_EQ(frame.txEnd, end);
  };
  scheduler_.runAll();
  ASSERT_TRUE(fired);
  ASSERT_EQ(probe(b).receptions.size(), 2u);  // a's, then d's
  EXPECT_EQ(probe(b).receptions[0].reason, DropReason::kNone);
  ASSERT_EQ(probe(c).receptions.size(), 3u);
  EXPECT_EQ(probe(c).receptions[0].from, a);
  EXPECT_EQ(probe(c).receptions[0].reason, DropReason::kCollision);
  ASSERT_EQ(probe(d).receptions.size(), 2u);  // a's, then b's
  EXPECT_EQ(probe(d).receptions[0].from, a);
  EXPECT_EQ(probe(d).receptions[0].reason, DropReason::kHalfDuplex);
  ASSERT_EQ(probe(e).receptions.size(), 1u);
  EXPECT_EQ(probe(e).receptions[0].from, d);
  EXPECT_EQ(probe(e).receptions[0].reason, DropReason::kNone);
  EXPECT_EQ(probe(a).txCompleted, 1);
  EXPECT_EQ(probe(b).txCompleted, 1);
  EXPECT_EQ(probe(d).txCompleted, 1);
  EXPECT_EQ(ch.framesTransmitted(), 3u);
  EXPECT_FALSE(ch.carrierBusy(c));
}

TEST_F(ChannelTest, FinishedFrameReleasesHelloNeighborList) {
  // The air-frame slot is recycled, not freed: ending the frame must drop
  // its packet so the slot does not pin a HELLO's shared neighbour list.
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  const HostId b = addNode({100, 0});
  const net::NeighborList neighbors =
      std::make_shared<const std::vector<HostId>>(std::vector<HostId>{b});
  net::Packet hello;
  hello.type = net::PacketType::kHello;
  hello.sender = a;
  hello.helloNeighbors = neighbors;
  ch.transmit(a, std::move(hello), 40);
  EXPECT_EQ(neighbors.use_count(), 2);  // the frame on the air holds it
  scheduler_.runAll();
  ASSERT_EQ(probe(b).receptions.size(), 1u);
  EXPECT_EQ(neighbors.use_count(), 1);
}

TEST_F(ChannelTest, CollisionSettingIsFixedWhileFramesFly) {
  Channel& ch = makeChannel();
  const HostId a = addNode({0, 0});
  addNode({100, 0});
  ch.transmit(a, dataPacket(a), 280);
  EXPECT_DEATH(ch.setCollisionsEnabled(false), "Precondition");
  scheduler_.runAll();
  ch.setCollisionsEnabled(false);  // the air is clear again
  ch.transmit(a, dataPacket(a), 280);
  scheduler_.runAll();
  EXPECT_EQ(ch.framesDelivered(), 2u);
}

// --- O(1) reception state against a brute-force oracle (DESIGN.md §11.6) ---

/// Random overlapping frames on a small static map, logged in one global
/// order of events: each transmit() call, each reception's completion and
/// each transmission's end take the next tick of `clock`. Receivers
/// sometimes transmit from inside their reception callback (re-entering
/// transmit() from an end batch); scheduled senders often start while
/// they are receiving.
class DifferentialRun {
 public:
  static constexpr std::uint64_t kOpen =
      std::numeric_limits<std::uint64_t>::max();
  struct Tx {
    HostId src;
    sim::TimePoint start;
    std::uint64_t begin;         // tick of the transmit() call
    std::uint64_t end = kOpen;   // tick of onTxComplete
  };
  struct Rx {
    std::size_t tx;        // index into txs
    HostId node;
    std::uint64_t end;     // tick of onFrameReceived
    DropReason drop;
  };

  DifferentialRun(std::uint64_t seed, bool collisions, bool instantSense)
      : rng_(seed) {
    PhyParams params;
    if (instantSense) params.carrierSenseDelay = sim::Duration{};
    channel_ = std::make_unique<Channel>(scheduler_, params);
    channel_->setCollisionsEnabled(collisions);
    const auto hosts = static_cast<std::uint32_t>(rng_.uniformInt(3, 9));
    for (std::uint32_t i = 0; i < hosts; ++i) {
      const geom::Vec2 p{rng_.uniform(0.0, 1000.0), rng_.uniform(0.0, 1000.0)};
      positions.push_back(p);
      nodes_.push_back(std::make_unique<Node>(*this, HostId{i}));
      channel_->attach(HostId{i}, nodes_.back().get(), [p] { return p; });
    }
    // Start times on a 5 us grid: ties, starts inside the carrier-sense
    // delay and starts across whole airtimes (192-2592 us) all occur.
    const int frames = static_cast<int>(rng_.uniformInt(5, 40));
    for (int f = 0; f < frames; ++f) {
      const HostId src{static_cast<std::uint32_t>(rng_.uniformInt(0, hosts - 1))};
      const sim::TimePoint at{5 * rng_.uniformInt(0, 2000)};
      scheduler_.schedule(at, [this, src] { send(src); });
    }
    scheduler_.runAll();
  }

  const Channel& channel() const { return *channel_; }

  std::vector<geom::Vec2> positions;
  std::vector<Tx> txs;  // in transmit() order
  std::vector<Rx> rxs;  // in completion order
  int reentrant = 0;    // transmissions started from a reception callback

 private:
  class Node final : public Channel::Listener {
   public:
    Node(DifferentialRun& run, HostId self) : run_(run), self_(self) {}
    void onFrameReceived(const Frame& frame, DropReason drop) override {
      run_.received(self_, frame, drop);
    }
    void onTxComplete() override { run_.txDone(self_); }

   private:
    DifferentialRun& run_;
    HostId self_;
  };

  void send(HostId src) {
    if (channel_->isTransmitting(src)) return;
    txs.push_back({src, scheduler_.now(), ++clock_});
    channel_->transmit(src, dataPacket(src),
                       static_cast<std::size_t>(rng_.uniformInt(0, 300)));
  }
  void received(HostId self, const Frame& frame, DropReason drop) {
    std::size_t tx = txs.size();
    while (tx-- > 0) {
      if (txs[tx].src == frame.src && txs[tx].start == frame.txStart) break;
    }
    ASSERT_LT(tx, txs.size());
    rxs.push_back({tx, self, ++clock_, drop});
    if (rng_.uniformInt(0, 5) == 0 && !channel_->isTransmitting(self)) {
      ++reentrant;
      send(self);
    }
  }
  void txDone(HostId self) {
    for (Tx& tx : txs) {
      if (tx.src == self && tx.end == kOpen) tx.end = ++clock_;
    }
  }

  sim::Rng rng_;
  sim::Scheduler scheduler_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t clock_ = 0;
};

/// The verdict of reception `rx` from interval overlaps alone. A reception
/// is in flight at its node from its frame's transmit() call until its own
/// completion; a transmission from its transmit() call until its end. The
/// first cause wins: at the frame's start, the node's own transmission
/// (half-duplex) before another reception in flight (collision); later, the
/// first transmit() call by the node (half-duplex) or reaching it
/// (collision) before the reception completes.
DropReason oracleVerdict(const DifferentialRun& run,
                         const DifferentialRun::Rx& rx, double radius) {
  const auto hears = [&](HostId from, HostId to) {
    return from != to &&
           geom::distanceSquared(run.positions[from.value()],
                                 run.positions[to.value()]) <=
               radius * radius;
  };
  const std::uint64_t begin = run.txs[rx.tx].begin;
  for (const DifferentialRun::Tx& tx : run.txs) {
    if (tx.src == rx.node && tx.begin < begin && tx.end > begin) {
      return DropReason::kHalfDuplex;
    }
  }
  for (const DifferentialRun::Rx& other : run.rxs) {
    if (other.node == rx.node && run.txs[other.tx].begin < begin &&
        other.end > begin) {
      return DropReason::kCollision;
    }
  }
  for (const DifferentialRun::Tx& tx : run.txs) {
    if (tx.begin <= begin || tx.begin >= rx.end) continue;
    if (tx.src == rx.node) return DropReason::kHalfDuplex;
    if (hears(tx.src, rx.node)) return DropReason::kCollision;
  }
  return DropReason::kNone;
}

TEST(ChannelDifferential, VerdictsMatchAnIntervalOverlapOracle) {
  const double radius = PhyParams{}.radiusMeters;
  int verdicts[3] = {};  // none, collision, half-duplex
  int reentrant = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const bool collisions = seed % 5 != 0;
    const bool instantSense = seed % 3 == 0;
    const DifferentialRun run(seed, collisions, instantSense);
    reentrant += run.reentrant;
    // Every in-range node completes each frame exactly once.
    std::size_t expected = 0;
    for (const DifferentialRun::Tx& tx : run.txs) {
      ASSERT_NE(tx.end, DifferentialRun::kOpen) << "seed " << seed;
      for (std::size_t n = 0; n < run.positions.size(); ++n) {
        expected += (n != tx.src.value() &&
                     geom::distanceSquared(run.positions[tx.src.value()],
                                           run.positions[n]) <=
                         radius * radius)
                        ? 1
                        : 0;
      }
    }
    ASSERT_EQ(run.rxs.size(), expected) << "seed " << seed;
    std::uint64_t corrupted = 0;
    for (const DifferentialRun::Rx& rx : run.rxs) {
      const DropReason want =
          collisions ? oracleVerdict(run, rx, radius) : DropReason::kNone;
      ASSERT_EQ(rx.drop, want)
          << "seed " << seed << ": node " << rx.node.value() << ", frame "
          << rx.tx << " from " << run.txs[rx.tx].src.value();
      corrupted += rx.drop != DropReason::kNone ? 1 : 0;
      ++verdicts[rx.drop == DropReason::kNone        ? 0
                 : rx.drop == DropReason::kCollision ? 1
                                                     : 2];
    }
    EXPECT_EQ(run.channel().framesCorrupted(), corrupted);
    EXPECT_EQ(run.channel().framesDelivered(), run.rxs.size() - corrupted);
    EXPECT_EQ(run.channel().framesTransmitted(), run.txs.size());
  }
  // The runs reach every verdict and re-enter transmit().
  EXPECT_GT(verdicts[0], 100);
  EXPECT_GT(verdicts[1], 100);
  EXPECT_GT(verdicts[2], 100);
  EXPECT_GT(reentrant, 100);
}

}  // namespace
}  // namespace manet::phy
