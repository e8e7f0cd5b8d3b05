#include "mac/dcf.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/scheduler.hpp"

namespace manet::mac {
namespace {

using net::HostId;

net::Packet dataPacket(std::uint32_t sender, std::uint32_t seq = 0) {
  const HostId src{sender};
  return net::makeDataPacket(net::BroadcastId{src, net::BroadcastSeq{seq}},
                             src);
}

class FakeUpper : public DcfMac::Upper {
 public:
  struct Event {
    enum Kind { kTxStart, kTxFinish, kRx } kind;
    DcfMac::TxId id;
    sim::TimePoint at;
    HostId from;
  };
  explicit FakeUpper(sim::Scheduler& s) : scheduler_(s) {}
  void onTxStarted(DcfMac::TxId id, const net::Packet&) override {
    events.push_back({Event::kTxStart, id, scheduler_.now(), HostId{}});
  }
  void onTxFinished(DcfMac::TxId id, const net::Packet&) override {
    events.push_back({Event::kTxFinish, id, scheduler_.now(), HostId{}});
  }
  void onReceive(const phy::Frame& frame) override {
    events.push_back({Event::kRx, 0, scheduler_.now(), frame.src});
  }

  std::vector<Event> ofKind(Event::Kind kind) const {
    std::vector<Event> out;
    for (const auto& e : events) {
      if (e.kind == kind) out.push_back(e);
    }
    return out;
  }

  std::vector<Event> events;

 private:
  sim::Scheduler& scheduler_;
};

class DcfTest : public ::testing::Test {
 protected:
  DcfTest() : channel_(scheduler_, phy::PhyParams{}) {}

  DcfMac& addStation(geom::Vec2 pos, std::uint64_t seed = 1) {
    const HostId id{static_cast<std::uint32_t>(macs_.size())};
    uppers_.push_back(std::make_unique<FakeUpper>(scheduler_));
    macs_.push_back(std::make_unique<DcfMac>(
        scheduler_, channel_, id, [pos] { return pos; }, sim::Rng(seed),
        MacParams{}, uppers_.back().get()));
    return *macs_.back();
  }

  FakeUpper& upper(std::uint32_t id) { return *uppers_[id]; }

  sim::Scheduler scheduler_;
  phy::Channel channel_;
  std::vector<std::unique_ptr<FakeUpper>> uppers_;
  std::vector<std::unique_ptr<DcfMac>> macs_;
};

constexpr sim::Duration kDifs{50};
constexpr sim::Duration kSlot{20};
constexpr sim::Duration kAirtime280{2432};

TEST_F(DcfTest, FirstFrameWaitsDifsFromBoot) {
  DcfMac& a = addStation({0, 0});
  a.enqueue(dataPacket(0), 280);
  scheduler_.runAll();
  const auto starts = upper(0).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].at, sim::kTimeZero + kDifs);
}

TEST_F(DcfTest, LongIdleMeansImmediateTransmit) {
  DcfMac& a = addStation({0, 0});
  scheduler_.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0), 280);
  scheduler_.runAll();
  const auto starts = upper(0).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].at, sim::TimePoint{10'000});  // idle >= DIFS: no extra wait
}

TEST_F(DcfTest, TxFinishedAfterAirtime) {
  DcfMac& a = addStation({0, 0});
  scheduler_.runUntil(sim::TimePoint{1'000});
  a.enqueue(dataPacket(0), 280);
  scheduler_.runAll();
  const auto finishes = upper(0).ofKind(FakeUpper::Event::kTxFinish);
  ASSERT_EQ(finishes.size(), 1u);
  EXPECT_EQ(finishes[0].at, sim::TimePoint{1'000} + kAirtime280);
}

TEST_F(DcfTest, IntactFrameIsDeliveredUp) {
  DcfMac& a = addStation({0, 0});
  addStation({300, 0}, 2);
  scheduler_.runUntil(sim::TimePoint{1'000});
  a.enqueue(dataPacket(0), 280);
  scheduler_.runAll();
  const auto rx = upper(1).ofKind(FakeUpper::Event::kRx);
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(rx[0].from, HostId{0});
}

TEST_F(DcfTest, CorruptedFrameIsDroppedByFcs) {
  // Two hidden stations transmit into a common receiver simultaneously.
  DcfMac& a = addStation({0, 0}, 1);
  DcfMac& b = addStation({900, 0}, 2);
  addStation({450, 0}, 3);
  scheduler_.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0), 280);
  b.enqueue(dataPacket(1), 280);
  scheduler_.runAll();
  EXPECT_TRUE(upper(2).ofKind(FakeUpper::Event::kRx).empty());
  EXPECT_EQ(macs_[2]->framesDroppedCorrupt(), 2u);
}

TEST_F(DcfTest, DeferUntilMediumIdlePlusDifs) {
  DcfMac& a = addStation({0, 0}, 1);
  DcfMac& b = addStation({300, 0}, 2);
  scheduler_.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0), 280);  // starts at 10'000, ends 12'432
  scheduler_.runUntil(sim::TimePoint{10'100});
  b.enqueue(dataPacket(1), 280);  // medium busy: defer + draw a backoff
  scheduler_.runAll();
  const auto starts = upper(1).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(starts.size(), 1u);
  // DCF: busy at access attempt => backoff. b starts at idle-end + DIFS +
  // k slots, k in [0, 31].
  const sim::TimePoint idleEnd = sim::TimePoint{10'000} + kAirtime280;
  const sim::Duration gap = starts[0].at - (idleEnd + kDifs);
  EXPECT_GE(gap, sim::Duration{});
  EXPECT_LE(gap, 31 * kSlot);
  EXPECT_EQ(gap % kSlot, sim::Duration{});
}

TEST_F(DcfTest, PostBackoffDelaysSecondFrame) {
  DcfMac& a = addStation({0, 0}, 7);
  scheduler_.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0, 0), 280);
  a.enqueue(dataPacket(0, 1), 280);
  scheduler_.runAll();
  const auto starts = upper(0).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(starts.size(), 2u);
  const sim::Duration gap = starts[1].at - (starts[0].at + kAirtime280);
  // Post-backoff: DIFS plus 0..31 whole slots.
  EXPECT_GE(gap, kDifs);
  EXPECT_LE(gap, kDifs + 31 * kSlot);
  EXPECT_EQ((gap - kDifs) % kSlot, sim::Duration{});
}

TEST_F(DcfTest, PostBackoffExpiresWhileIdle) {
  // After a transmission and a long idle gap, the next frame goes out
  // immediately: the owed backoff already counted down.
  DcfMac& a = addStation({0, 0}, 7);
  scheduler_.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0, 0), 280);
  scheduler_.runUntil(sim::TimePoint{50'000});  // plenty of idle time
  a.enqueue(dataPacket(0, 1), 280);
  scheduler_.runAll();
  const auto starts = upper(0).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[1].at, sim::TimePoint{50'000});
}

TEST_F(DcfTest, CancelBeforeStartSuppressesTransmission) {
  DcfMac& a = addStation({0, 0});
  const auto id = a.enqueue(dataPacket(0), 280);
  EXPECT_TRUE(a.cancel(id));
  scheduler_.runAll();
  EXPECT_TRUE(upper(0).ofKind(FakeUpper::Event::kTxStart).empty());
  EXPECT_TRUE(a.quiescent());
}

TEST_F(DcfTest, CancelAfterStartFails) {
  DcfMac& a = addStation({0, 0});
  const auto id = a.enqueue(dataPacket(0), 280);
  scheduler_.runUntil(sim::kTimeZero + kDifs);  // transmission started exactly at DIFS
  EXPECT_FALSE(a.cancel(id));
}

TEST_F(DcfTest, CancelUnknownIdFails) {
  DcfMac& a = addStation({0, 0});
  EXPECT_FALSE(a.cancel(12345));
}

TEST_F(DcfTest, CancelMiddleOfQueuePreservesOthers) {
  DcfMac& a = addStation({0, 0});
  scheduler_.runUntil(sim::TimePoint{10'000});
  const auto id1 = a.enqueue(dataPacket(0, 1), 280);
  const auto id2 = a.enqueue(dataPacket(0, 2), 280);
  const auto id3 = a.enqueue(dataPacket(0, 3), 280);
  EXPECT_TRUE(a.cancel(id2));
  scheduler_.runAll();
  const auto starts = upper(0).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].id, id1);
  EXPECT_EQ(starts[1].id, id3);
}

TEST_F(DcfTest, FifoOrderAcrossQueue) {
  DcfMac& a = addStation({0, 0});
  scheduler_.runUntil(sim::TimePoint{10'000});
  std::vector<DcfMac::TxId> ids;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ids.push_back(a.enqueue(dataPacket(0, i), 280));
  }
  scheduler_.runAll();
  const auto starts = upper(0).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(starts.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(starts[i].id, ids[i]);
}

TEST_F(DcfTest, TwoContendersSerializeViaCarrierSense) {
  // Both stations in range of each other; whoever wins, frames must not
  // overlap, so the common receiver decodes both.
  DcfMac& a = addStation({0, 0}, 11);
  DcfMac& b = addStation({100, 0}, 22);
  addStation({200, 0}, 33);
  scheduler_.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0), 280);
  scheduler_.runUntil(sim::TimePoint{10'500});  // a is now on the air; b defers
  b.enqueue(dataPacket(1), 280);
  scheduler_.runAll();
  EXPECT_EQ(upper(2).ofKind(FakeUpper::Event::kRx).size(), 2u);
  EXPECT_EQ(macs_[2]->framesDroppedCorrupt(), 0u);
}

TEST_F(DcfTest, BackoffFreezesDuringBusyMedium) {
  // Station b owes a post-backoff and a long frame occupies the medium;
  // b's counter must not decrement during that time.
  DcfMac& a = addStation({0, 0}, 11);
  DcfMac& b = addStation({100, 0}, 22);
  scheduler_.runUntil(sim::TimePoint{10'000});
  b.enqueue(dataPacket(1, 0), 280);  // b transmits at 10'000..12'432
  scheduler_.runUntil(sim::TimePoint{12'432});
  // b now owes a post-backoff. Occupy the medium with a's frame.
  a.enqueue(dataPacket(0), 280);  // a waits DIFS (12'482) then transmits
  b.enqueue(dataPacket(1, 1), 280);
  scheduler_.runAll();
  const auto bStarts = upper(1).ofKind(FakeUpper::Event::kTxStart);
  ASSERT_EQ(bStarts.size(), 2u);
  // b's second frame can only start after a's frame ended plus DIFS.
  const sim::TimePoint aEnd =
      upper(0).ofKind(FakeUpper::Event::kTxFinish)[0].at;
  EXPECT_GE(bStarts[1].at, aEnd + kDifs);
}

TEST_F(DcfTest, QueueDepthAndQuiescent) {
  DcfMac& a = addStation({0, 0});
  EXPECT_TRUE(a.quiescent());
  a.enqueue(dataPacket(0, 0), 280);
  a.enqueue(dataPacket(0, 1), 280);
  EXPECT_EQ(a.queueDepth(), 2u);
  EXPECT_FALSE(a.quiescent());
  scheduler_.runAll();
  EXPECT_TRUE(a.quiescent());
  EXPECT_EQ(a.framesSent(), 2u);
}

TEST_F(DcfTest, SlotBoundaryAccounting) {
  // A deterministic check that backoff consumes whole slots: run many
  // two-frame sequences across seeds and verify every gap is DIFS+k*slot.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Scheduler scheduler;
    phy::Channel channel(scheduler, phy::PhyParams{});
    FakeUpper up(scheduler);
    DcfMac mac(scheduler, channel, HostId{0}, [] { return geom::Vec2{}; },
               sim::Rng(seed), MacParams{}, &up);
    scheduler.runUntil(sim::TimePoint{10'000});
    mac.enqueue(dataPacket(0, 0), 280);
    mac.enqueue(dataPacket(0, 1), 280);
    scheduler.runAll();
    const auto starts = up.ofKind(FakeUpper::Event::kTxStart);
    ASSERT_EQ(starts.size(), 2u);
    const sim::Duration gap = starts[1].at - (starts[0].at + kAirtime280);
    EXPECT_EQ((gap - kDifs) % kSlot, sim::Duration{}) << "seed=" << seed;
    EXPECT_GE((gap - kDifs) / kSlot, 0);
    EXPECT_LE((gap - kDifs) / kSlot, 31);
  }
}

}  // namespace
}  // namespace manet::mac
