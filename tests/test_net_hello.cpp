#include "net/hello.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mac/dcf.hpp"
#include "net/neighbor_table.hpp"
#include "phy/channel.hpp"
#include "sim/scheduler.hpp"

namespace manet::net {
namespace {

using sim::kSecond;

constexpr sim::TimePoint T(sim::Duration sinceStart) {
  return sim::kTimeZero + sinceStart;
}

class RecordingUpper : public mac::DcfMac::Upper {
 public:
  explicit RecordingUpper(sim::Scheduler& s) : scheduler_(s) {}
  void onTxStarted(mac::DcfMac::TxId, const Packet& p) override {
    if (p.type == PacketType::kHello) {
      helloStartTimes.push_back(scheduler_.now());
      lastHello = p;
    }
  }
  void onTxFinished(mac::DcfMac::TxId, const Packet&) override {}
  void onReceive(const phy::Frame& frame) override {
    if (frame.packet.type == PacketType::kHello) {
      received.push_back(frame.packet);
    }
  }

  std::vector<sim::TimePoint> helloStartTimes;
  std::vector<Packet> received;
  Packet lastHello;

 private:
  sim::Scheduler& scheduler_;
};

class HelloTest : public ::testing::Test {
 protected:
  HelloTest() : channel_(scheduler_, phy::PhyParams{}) {}

  struct Station {
    std::unique_ptr<RecordingUpper> upper;
    std::unique_ptr<mac::DcfMac> mac;
    std::unique_ptr<NeighborTable> table;
    std::unique_ptr<HelloAgent> agent;
  };

  Station& addStation(geom::Vec2 pos, HelloConfig config,
                      std::uint64_t seed = 1) {
    const HostId id{static_cast<std::uint32_t>(stations_.size())};
    auto st = std::make_unique<Station>();
    st->upper = std::make_unique<RecordingUpper>(scheduler_);
    st->mac = std::make_unique<mac::DcfMac>(
        scheduler_, channel_, id, [pos] { return pos; }, sim::Rng(seed),
        mac::MacParams{}, st->upper.get());
    st->table = std::make_unique<NeighborTable>();
    st->agent = std::make_unique<HelloAgent>(scheduler_, *st->mac, *st->table,
                                             config, sim::Rng(seed + 100));
    stations_.push_back(std::move(st));
    return *stations_.back();
  }

  sim::Scheduler scheduler_;
  phy::Channel channel_;
  std::vector<std::unique_ptr<Station>> stations_;
};

TEST_F(HelloTest, DisabledAgentSendsNothing) {
  HelloConfig cfg;
  cfg.enabled = false;
  Station& s = addStation({0, 0}, cfg);
  s.agent->start();
  scheduler_.runUntil(T(30 * kSecond));
  EXPECT_EQ(s.agent->hellosSent(), 0u);
}

TEST_F(HelloTest, FixedIntervalBeaconing) {
  HelloConfig cfg;
  cfg.interval = 2 * kSecond;
  cfg.startJitter = sim::kMicrosecond;  // effectively immediate
  Station& s = addStation({0, 0}, cfg);
  s.agent->start();
  scheduler_.runUntil(T(10 * kSecond));
  // ~5 hellos in 10 s at a 2 s interval.
  EXPECT_GE(s.agent->hellosSent(), 4u);
  EXPECT_LE(s.agent->hellosSent(), 6u);
  ASSERT_GE(s.upper->helloStartTimes.size(), 2u);
  const sim::Duration gap =
      s.upper->helloStartTimes[1] - s.upper->helloStartTimes[0];
  EXPECT_NEAR(static_cast<double>(gap.ticks()),
              static_cast<double>((2 * kSecond).ticks()),
              static_cast<double>((100 * sim::kMillisecond).ticks()));
}

TEST_F(HelloTest, StartJitterStaggersFirstHello) {
  HelloConfig cfg;
  cfg.startJitter = 1 * kSecond;
  Station& a = addStation({0, 0}, cfg, 1);
  Station& b = addStation({5000, 5000}, cfg, 2);
  a.agent->start();
  b.agent->start();
  scheduler_.runUntil(T(3 * kSecond));
  ASSERT_FALSE(a.upper->helloStartTimes.empty());
  ASSERT_FALSE(b.upper->helloStartTimes.empty());
  EXPECT_NE(a.upper->helloStartTimes[0], b.upper->helloStartTimes[0]);
}

TEST_F(HelloTest, NeighborsLearnEachOther) {
  HelloConfig cfg;
  Station& a = addStation({0, 0}, cfg, 1);
  Station& b = addStation({300, 0}, cfg, 2);
  a.agent->start();
  b.agent->start();
  scheduler_.runUntil(T(5 * kSecond));
  // Receptions feed the tables through the owning host in production; here
  // we verify the frames arrive and carry the right announcements.
  ASSERT_FALSE(a.upper->received.empty());
  EXPECT_EQ(a.upper->received[0].sender, HostId{1});
  EXPECT_EQ(a.upper->received[0].helloInterval, cfg.interval);
}

TEST_F(HelloTest, PiggybackCarriesNeighborList) {
  HelloConfig cfg;
  cfg.piggybackNeighbors = true;
  Station& a = addStation({0, 0}, cfg, 1);
  a.agent->start();
  // Seed a's table so the next hello advertises it.
  Packet h;
  h.type = PacketType::kHello;
  h.helloInterval = 30 * kSecond;
  a.table->onHello(HostId{42}, h, sim::kTimeZero);
  scheduler_.runUntil(T(5 * kSecond));
  ASSERT_NE(a.upper->lastHello.helloNeighbors, nullptr);
  EXPECT_EQ(*a.upper->lastHello.helloNeighbors,
            (std::vector<HostId>{HostId{42}}));
}

TEST_F(HelloTest, PiggybackDisabledSendsEmptyList) {
  HelloConfig cfg;
  cfg.piggybackNeighbors = false;
  Station& a = addStation({0, 0}, cfg, 1);
  Packet h;
  h.type = PacketType::kHello;
  h.helloInterval = 30 * kSecond;
  a.table->onHello(HostId{42}, h, sim::kTimeZero);
  a.agent->start();
  scheduler_.runUntil(T(5 * kSecond));
  EXPECT_EQ(a.upper->lastHello.helloNeighbors, nullptr);
}

// --- the DHI formula itself (§4.3), as a pure function ---

TEST(DynamicInterval, HighVariationSelectsMinimum) {
  HelloConfig cfg;
  cfg.dynamic = true;
  EXPECT_EQ(HelloAgent::dynamicInterval(cfg, 0.02), cfg.intervalMin);
  EXPECT_EQ(HelloAgent::dynamicInterval(cfg, 0.5), cfg.intervalMin);
}

TEST(DynamicInterval, ZeroVariationSelectsMaximum) {
  HelloConfig cfg;
  cfg.dynamic = true;
  EXPECT_EQ(HelloAgent::dynamicInterval(cfg, 0.0), cfg.intervalMax);
}

TEST(DynamicInterval, LinearInBetween) {
  HelloConfig cfg;
  cfg.dynamic = true;
  cfg.intervalMin = 1 * kSecond;
  cfg.intervalMax = 10 * kSecond;
  cfg.nvMax = 0.02;
  // nv = 0.01 -> (0.02-0.01)/0.02 * 10 s = 5 s.
  EXPECT_EQ(HelloAgent::dynamicInterval(cfg, 0.01), 5 * kSecond);
  // nv = 0.015 -> 2.5 s.
  EXPECT_EQ(HelloAgent::dynamicInterval(cfg, 0.015),
            2 * kSecond + 500 * sim::kMillisecond);
}

TEST(DynamicInterval, ClampedToMinimum) {
  HelloConfig cfg;
  cfg.dynamic = true;
  cfg.intervalMin = 4 * kSecond;
  cfg.intervalMax = 10 * kSecond;
  // nv close to nvMax would give < intervalMin without the clamp.
  EXPECT_EQ(HelloAgent::dynamicInterval(cfg, 0.019), 4 * kSecond);
}

TEST_F(HelloTest, DynamicAgentAnnouncesItsInterval) {
  HelloConfig cfg;
  cfg.dynamic = true;
  Station& a = addStation({0, 0}, cfg, 1);
  a.agent->start();
  scheduler_.runUntil(T(2 * kSecond));
  // Stable (empty-window) neighborhood: nv = 0 -> interval = max.
  EXPECT_EQ(a.agent->currentInterval(), cfg.intervalMax);
  EXPECT_EQ(a.upper->lastHello.helloInterval, cfg.intervalMax);
}

TEST_F(HelloTest, DynamicAgentShortensIntervalUnderChurn) {
  HelloConfig cfg;
  cfg.dynamic = true;
  Station& a = addStation({0, 0}, cfg, 1);
  // Simulate heavy churn: many short-lived entries.
  for (int i = 0; i < 10; ++i) {
    Packet h;
    h.type = PacketType::kHello;
    h.helloInterval = 100 * sim::kMillisecond;
    a.table->onHello(HostId{static_cast<std::uint32_t>(100 + i)}, h,
                     sim::TimePoint{static_cast<std::int64_t>(i) * 10});
  }
  a.agent->start();
  scheduler_.runUntil(T(2 * kSecond));  // entries expire fast: joins + leaves
  EXPECT_LT(a.agent->currentInterval(), cfg.intervalMax);
}

}  // namespace
}  // namespace manet::net
