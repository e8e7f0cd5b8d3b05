// State fingerprints (DESIGN.md §14): the per-subsystem diff, and the
// side-effect-free capture rule under random roam.
#include "ckpt/fingerprint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/state_access.hpp"
#include "experiment/host.hpp"
#include "experiment/world.hpp"
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

// The scheduler word folds heap and lane residents into one sorted
// (at, seq) set: the same pending events digest alike whichever queue holds
// them, a pending lane event counts, and a cancelled one, still queued in
// its ring, no longer does.
TEST(CkptFingerprint, SchedulerDigestCoversLaneEvents) {
  sim::Scheduler heapOnly;
  sim::Scheduler laned;
  sim::Scheduler twin;
  laned.addLane(sim::Duration{20});
  twin.addLane(sim::Duration{20});
  std::vector<sim::Scheduler::Handle> heapH;
  std::vector<sim::Scheduler::Handle> lanedH;
  std::vector<sim::Scheduler::Handle> twinH;
  for (int i = 0; i < 3; ++i) {
    heapH.push_back(heapOnly.scheduleAfter(sim::Duration{20}, [] {}));
    lanedH.push_back(laned.scheduleAfter(sim::Duration{20}, [] {}));
    twinH.push_back(twin.scheduleAfter(sim::Duration{20}, [] {}));
  }
  const auto digest = [](const sim::Scheduler& s) {
    return StateAccess::schedulerDigest(s);
  };
  EXPECT_EQ(digest(laned), digest(heapOnly));

  // Same counters everywhere; only which lane event is live differs.
  heapH[1].cancel();
  lanedH[1].cancel();  // behind the head: a dead ring entry
  twinH[2].cancel();
  EXPECT_EQ(digest(laned), digest(heapOnly));
  EXPECT_NE(digest(laned), digest(twin));

  lanedH[2].cancel();
  twinH[1].cancel();
  EXPECT_EQ(digest(laned), digest(twin));
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
