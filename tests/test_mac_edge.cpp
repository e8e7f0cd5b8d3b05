// MAC edge cases beyond the core conformance tests: cancellation timing,
// mixed hello/data queues, zero carrier-sense delay, saturation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/dcf.hpp"
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

class CountingUpper : public DcfMac::Upper {
 public:
  void onTxStarted(DcfMac::TxId, const net::Packet&) override { ++starts; }
  void onTxFinished(DcfMac::TxId, const net::Packet&) override { ++finishes; }
  void onReceive(const phy::Frame& frame) override {
    received.push_back(frame.packet.type);
  }
  int starts = 0;
  int finishes = 0;
  std::vector<net::PacketType> received;
};

struct Rig {
  explicit Rig(phy::PhyParams phyParams = {})
      : channel(scheduler, phyParams) {}

  DcfMac& add(geom::Vec2 pos, std::uint64_t seed = 1) {
    const HostId id{static_cast<std::uint32_t>(macs.size())};
    uppers.push_back(std::make_unique<CountingUpper>());
    macs.push_back(std::make_unique<DcfMac>(
        scheduler, channel, id, [pos] { return pos; }, sim::Rng(seed),
        MacParams{}, uppers.back().get()));
    return *macs.back();
  }

  sim::Scheduler scheduler;
  phy::Channel channel;
  std::vector<std::unique_ptr<CountingUpper>> uppers;
  std::vector<std::unique_ptr<DcfMac>> macs;
};

TEST(MacEdge, CancelDuringFrozenBackoff) {
  Rig rig;
  DcfMac& a = rig.add({0, 0}, 1);
  DcfMac& b = rig.add({100, 0}, 2);
  rig.scheduler.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0), 280);  // occupies the medium
  rig.scheduler.runUntil(sim::TimePoint{10'100});
  const auto id = b.enqueue(dataPacket(1), 280);  // deferred, backoff drawn
  rig.scheduler.runUntil(sim::TimePoint{11'000});                 // still mid-frame
  EXPECT_TRUE(b.cancel(id));
  rig.scheduler.runAll();
  EXPECT_EQ(rig.uppers[1]->starts, 0);
  EXPECT_TRUE(b.quiescent());
}

TEST(MacEdge, ZeroCarrierSenseDelaySerializesSameInstantDecisions) {
  phy::PhyParams phyParams;
  phyParams.carrierSenseDelay = sim::Duration{};  // idealized instant CCA
  Rig rig(phyParams);
  DcfMac& a = rig.add({0, 0}, 1);
  DcfMac& b = rig.add({100, 0}, 2);
  rig.add({200, 0}, 3);
  rig.scheduler.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0), 280);
  b.enqueue(dataPacket(1), 280);  // same instant; with zero delay b defers
  rig.scheduler.runAll();
  // Both frames decoded intact at the third station: no collision.
  EXPECT_EQ(rig.uppers[2]->received.size(), 2u);
  EXPECT_EQ(rig.macs[2]->framesDroppedCorrupt(), 0u);
}

TEST(MacEdge, DefaultSenseDelayMakesSameInstantDecisionsCollide) {
  Rig rig;  // 5 us sense delay
  DcfMac& a = rig.add({0, 0}, 1);
  DcfMac& b = rig.add({100, 0}, 2);
  rig.add({200, 0}, 3);
  rig.scheduler.runUntil(sim::TimePoint{10'000});
  a.enqueue(dataPacket(0), 280);
  b.enqueue(dataPacket(1), 280);  // b cannot sense a's 0-us-old carrier
  rig.scheduler.runAll();
  EXPECT_EQ(rig.uppers[2]->received.size(), 0u);
  EXPECT_EQ(rig.macs[2]->framesDroppedCorrupt(), 2u);
}

TEST(MacEdge, SaturatedQueueDrainsCompletely) {
  Rig rig;
  DcfMac& a = rig.add({0, 0}, 1);
  rig.add({100, 0}, 2);
  rig.scheduler.runUntil(sim::TimePoint{10'000});
  for (std::uint32_t i = 0; i < 20; ++i) a.enqueue(dataPacket(0, i), 280);
  rig.scheduler.runAll();
  EXPECT_EQ(rig.uppers[0]->starts, 20);
  EXPECT_EQ(rig.uppers[0]->finishes, 20);
  EXPECT_EQ(rig.uppers[1]->received.size(), 20u);
  EXPECT_TRUE(a.quiescent());
}

TEST(MacEdge, MixedDataHelloQueue) {
  Rig rig;
  DcfMac& a = rig.add({0, 0}, 1);
  rig.add({100, 0}, 2);
  rig.scheduler.runUntil(sim::TimePoint{10'000});
  net::Packet hello;
  hello.type = net::PacketType::kHello;
  hello.sender = HostId{0};
  a.enqueue(dataPacket(0, 1), 280);
  a.enqueue(hello, 24);
  a.enqueue(dataPacket(0, 2), 280);
  rig.scheduler.runAll();
  // HELLOs and data share one FIFO: all three arrive in queue order.
  const std::vector<net::PacketType> expected{
      net::PacketType::kData, net::PacketType::kHello, net::PacketType::kData};
  EXPECT_EQ(rig.uppers[1]->received, expected);
  EXPECT_EQ(rig.uppers[0]->finishes, 3);
  EXPECT_TRUE(a.quiescent());
}

TEST(MacEdge, BackToBackBroadcastsFromManyStationsAllDrain) {
  // 6 stations in one collision domain, 5 frames each: the medium is
  // saturated but every frame is eventually transmitted exactly once.
  Rig rig;
  for (int i = 0; i < 6; ++i) {
    rig.add({static_cast<double>(i) * 50.0, 0}, static_cast<std::uint64_t>(i) + 1);
  }
  rig.scheduler.runUntil(sim::TimePoint{10'000});
  for (auto& mac : rig.macs) {
    for (std::uint32_t s = 0; s < 5; ++s) {
      mac->enqueue(dataPacket(mac->self().value(), s), 280);
    }
  }
  rig.scheduler.runAll();
  for (const auto& mac : rig.macs) {
    EXPECT_EQ(mac->framesSent(), 5u);
    EXPECT_TRUE(mac->quiescent());
  }
}

}  // namespace
}  // namespace manet::mac
