// State fingerprints (DESIGN.md §14): the per-subsystem diff, and the
// side-effect-free capture rule under random roam.
#include "ckpt/fingerprint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/state_access.hpp"
#include "experiment/host.hpp"
#include "experiment/world.hpp"
#include "mac/dcf.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace manet::ckpt {
namespace {

using experiment::ScenarioConfig;
using experiment::SchemeSpec;
using experiment::World;

// A small but fully-featured scenario: a HELLO-fed adaptive counter on a
// roaming population, so a capture exercises every fingerprint word.
ScenarioConfig smallConfig() {
  ScenarioConfig c;
  c.mapUnits = 3;
  c.numHosts = 30;
  c.numBroadcasts = 10;
  c.neighborSource = experiment::NeighborSource::kHello;
  c.hello.enabled = true;
  c.scheme = SchemeSpec::adaptiveCounter();
  c.seed = 42;
  return c;
}

sim::TimePoint fractionOf(const World& world, double fraction) {
  return sim::kTimeZero +
         sim::fromSeconds(sim::toSeconds(world.horizonTime()) * fraction);
}

TEST(CkptFingerprint, CaptureRoundTripAndDiff) {
  // Capture a real mid-run world rather than hand-building every word.
  World world(smallConfig());
  world.beginRun();
  world.continueUntil(fractionOf(world, 0.5));
  const WorldFingerprint fp = StateAccess::captureWorld(world);
  EXPECT_EQ(fp.hosts.size(), 30u);

  WorldFingerprint other = fp;
  EXPECT_TRUE(diffFingerprints(fp, other).empty());

  other.hosts[7].words[HostFingerprint::kNeighborTable] ^= 1;
  other.words[WorldFingerprint::kScheduler] ^= 1;
  const auto diffs = diffFingerprints(fp, other);
  ASSERT_EQ(diffs.size(), 2u);  // one line per mismatched subsystem or host
  EXPECT_EQ(diffs[0], "scheduler differs");
  EXPECT_EQ(diffs[1], "host 7: neighborTable differ(s)");

  other.hosts.pop_back();
  EXPECT_EQ(diffFingerprints(fp, other).back(), "host count: 30 vs 29");
}

// The scheduler word folds heap and wheel residents, countdowns included,
// into one sorted (at, seq) set: a pending event counts whichever queue
// holds it, and a cancelled one no longer does. Both schedulers first run
// past the wheel's end, so their buckets have wrapped.
TEST(CkptFingerprint, SchedulerDigestCoversWheelEvents) {
  sim::Scheduler a;
  sim::Scheduler b;
  a.runUntil(sim::TimePoint{1500});
  b.runUntil(sim::TimePoint{1500});
  std::vector<sim::Scheduler::Handle> aH;
  std::vector<sim::Scheduler::Handle> bH;
  for (sim::Scheduler* s : {&a, &b}) {
    auto& h = s == &a ? aH : bH;
    for (int i = 0; i < 3; ++i) {
      h.push_back(s->scheduleAfter(sim::Duration{20}, [] {}));  // wheel
    }
    h.push_back(s->scheduleAfter(sim::Duration{3000}, [] {}));  // heap
    h.push_back(s->scheduleCountdown(sim::Duration{20}, 5, [] {}));
  }
  const auto digest = [](const sim::Scheduler& s) {
    return StateAccess::schedulerDigest(s);
  };
  EXPECT_EQ(digest(a), digest(b));

  // Same counters in both; only which wheel event is live differs.
  aH[1].cancel();
  bH[2].cancel();
  EXPECT_NE(digest(a), digest(b));
  aH[2].cancel();
  bH[1].cancel();
  EXPECT_EQ(digest(a), digest(b));

  for (std::size_t i : {3u, 4u}) {  // the heap event, then the countdown
    aH[i].cancel();
    EXPECT_NE(digest(a), digest(b));
    bH[i].cancel();
    EXPECT_EQ(digest(a), digest(b));
  }
}

// A capture taken k slots into a backoff countdown of n slots digests the
// MAC as owing n - k: the word follows the countdown slot by slot, not the
// count it was armed with. A lone station transmits after DIFS; its
// post-backoff countdown starts DIFS after the frame ends.
TEST(CkptFingerprint, MacDigestFoldsTheSlotsStillOwed) {
  struct Quiet final : mac::DcfMac::Upper {
    void onTxStarted(mac::DcfMac::TxId, const net::Packet&) override {}
    void onTxFinished(mac::DcfMac::TxId, const net::Packet&) override {}
    void onReceive(const phy::Frame&) override {}
  };
  constexpr sim::Duration kSlot{20};
  constexpr sim::Duration kDifs{50};
  constexpr std::size_t kBytes = 280;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    sim::Scheduler scheduler;
    const phy::PhyParams phy{};
    phy::Channel channel(scheduler, phy);
    Quiet upper;
    mac::DcfMac mac(scheduler, channel, net::HostId{0},
                    [] { return geom::Vec2{}; }, sim::Rng(seed),
                    mac::MacParams{}, &upper);
    const net::HostId self{0};
    mac.enqueue(net::makeDataPacket(
                    net::BroadcastId{self, net::BroadcastSeq{0}}, self),
                kBytes);
    const sim::TimePoint armed =
        sim::kTimeZero + kDifs + phy.frameAirtime(kBytes) + kDifs;
    scheduler.runUntil(armed);
    const int n = StateAccess::macSlotsOwed(mac);
    if (n < 2) continue;  // no countdown: a plain slot event or none
    ++checked;
    std::uint64_t previous = 0;
    for (int k = 0; k < n; ++k) {
      // Mid-slot, and at the tick instant itself once it has run.
      scheduler.runUntil(armed + kSlot * k + sim::Duration{7});
      EXPECT_EQ(StateAccess::macSlotsOwed(mac), n - k) << "k=" << k;
      const std::uint64_t word = StateAccess::macDigest(mac);
      EXPECT_NE(word, previous);
      scheduler.runUntil(armed + kSlot * (k + 1) - sim::Duration{1});
      EXPECT_EQ(StateAccess::macDigest(mac), word);
      if (k + 1 < n) {
        scheduler.runUntil(armed + kSlot * (k + 1));
        EXPECT_EQ(StateAccess::macSlotsOwed(mac), n - k - 1);
      }
      previous = word;
    }
    scheduler.runAll();
    EXPECT_EQ(StateAccess::macSlotsOwed(mac), -1);
  }
  EXPECT_GT(checked, 3);
}

// The channel word covers the verdict of every reception on the air. Node
// 1 joins after node 0 went on the air, then transmits to it: with
// collisions on, node 0 loses that frame (half-duplex); with them off it
// stays intact. Counters, carrier, in-flight counts and intact receptions
// match in both, so only the frame's verdict can tell the words apart.
TEST(CkptFingerprint, ChannelWordCoversInFlightVerdicts) {
  struct Quiet final : phy::Channel::Listener {
    void onFrameReceived(const phy::Frame&, phy::DropReason) override {}
  };
  const auto word = [](bool collisions) {
    sim::Scheduler scheduler;
    phy::Channel channel(scheduler, phy::PhyParams{});
    channel.setCollisionsEnabled(collisions);
    Quiet a;
    Quiet b;
    const net::HostId first{0};
    const net::HostId second{1};
    channel.attach(first, &a, [] { return geom::Vec2{0, 0}; });
    channel.transmit(first, net::Packet{}, 280);  // nobody to hear it
    channel.attach(second, &b, [] { return geom::Vec2{100, 0}; });
    channel.transmit(second, net::Packet{}, 280);
    scheduler.runUntil(sim::TimePoint{100});  // energy sensed, frames on air
    return StateAccess::channelDigest(channel);
  };
  EXPECT_EQ(word(true), word(true));
  EXPECT_NE(word(true), word(false));
}

// A broadcast that turns terminal leaves the host's in-flight map, so the
// broadcast-states word must fold the terminal record too. Host 1 relays in
// two flooding worlds that differ only in its position, and is inhibited in
// a location-scheme world where it sits on the source: the word matches
// across the two relays and tells kSent from kInhibited.
TEST(CkptFingerprint, BroadcastStatesWordFoldsTerminalPhase) {
  const auto host1Word = [](std::vector<geom::Vec2> positions,
                            SchemeSpec scheme,
                            experiment::Host::PacketPhase expected) {
    ScenarioConfig c;
    c.fixedPositions = std::move(positions);
    c.scheme = std::move(scheme);
    c.mapUnits = 11;
    c.numBroadcasts = 0;
    c.seed = 5;
    World w(c);
    w.host(net::HostId{0}).originateBroadcast();
    w.scheduler().runUntil(sim::kTimeZero + 1 * sim::kSecond);
    const net::BroadcastId bid{net::HostId{0}, net::BroadcastSeq{0}};
    EXPECT_EQ(w.host(net::HostId{1}).phaseOf(bid), expected);
    EXPECT_EQ(w.host(net::HostId{1}).liveBroadcasts(), 0u);
    return StateAccess::host(w.host(net::HostId{1}))
        .words[HostFingerprint::kBroadcastStates];
  };
  using Phase = experiment::Host::PacketPhase;
  const std::uint64_t sent = host1Word({{0, 0}, {400, 0}, {5000, 5000}},
                                       SchemeSpec::flooding(), Phase::kSent);
  const std::uint64_t sentNearer = host1Word(
      {{0, 0}, {300, 0}, {5000, 5000}}, SchemeSpec::flooding(), Phase::kSent);
  const std::uint64_t inhibited =
      host1Word({{0, 0}, {0, 0}, {5000, 5000}}, SchemeSpec::location(0.05),
                Phase::kInhibited);
  EXPECT_EQ(sent, sentNearer);
  EXPECT_NE(sent, inhibited);
}

// Capturing at quarter, half and three-quarter time and then finishing
// the run must land on the same end state as an uncaptured straight run:
// a capture reads raw fields only, so it may not advance an integrator,
// draw from a stream, purge a table or rebuild the grid.
TEST(Ckpt, CaptureIsSideEffectFreeAndSplitRunMatchesStraight) {
  const ScenarioConfig config = smallConfig();
  World straight(config);
  straight.run();

  World split(config);
  split.beginRun();
  for (const double fraction : {0.25, 0.5, 0.75}) {
    split.continueUntil(fractionOf(split, fraction));
    const WorldFingerprint first = StateAccess::captureWorld(split);
    EXPECT_EQ(StateAccess::captureWorld(split), first)
        << "a second capture at " << fraction << " saw different state";
  }
  split.runToEnd();

  const auto diffs = diffFingerprints(StateAccess::captureWorld(split),
                                      StateAccess::captureWorld(straight));
  EXPECT_TRUE(diffs.empty()) << diffs.size() << " subsystem(s) diverged, e.g. "
                             << diffs.front();
}

/// The grid reads hosts lazily and the exhaustive scan reads every host at
/// every query, so mid-run a host may have epochs still to replay under one
/// and not the other. A capture digests each host after its replay, so the
/// two fingerprints agree at every boundary, and at the end.
TEST(Ckpt, FingerprintIsTheSameWithGridOnAndOff) {
  ScenarioConfig config = smallConfig();
  config.channelGrid = true;
  World grid(config);
  config.channelGrid = false;
  World scan(config);
  ASSERT_TRUE(grid.channel().gridEnabled());
  ASSERT_FALSE(scan.channel().gridEnabled());
  grid.beginRun();
  scan.beginRun();
  for (const double fraction : {0.25, 0.5, 0.75}) {
    grid.continueUntil(fractionOf(grid, fraction));
    scan.continueUntil(fractionOf(scan, fraction));
    const auto diffs = diffFingerprints(StateAccess::captureWorld(grid),
                                        StateAccess::captureWorld(scan));
    EXPECT_TRUE(diffs.empty()) << "at " << fraction << ": " << diffs.front();
  }
  grid.runToEnd();
  scan.runToEnd();
  EXPECT_EQ(StateAccess::captureWorld(grid), StateAccess::captureWorld(scan));
}

}  // namespace
}  // namespace manet::ckpt
