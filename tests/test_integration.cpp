// End-to-end runs of full scenarios: determinism, workload accounting,
// scheme-level behaviour on the paper's maps (scaled down).
#include <gtest/gtest.h>

#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "stats/connectivity.hpp"

namespace manet::experiment {
namespace {

ScenarioConfig smallScenario(int mapUnits, SchemeSpec scheme,
                             int broadcasts = 20) {
  ScenarioConfig c;
  c.mapUnits = mapUnits;
  c.numHosts = 60;
  c.numBroadcasts = broadcasts;
  c.scheme = std::move(scheme);
  c.seed = 11;
  return c;
}

TEST(Integration, RunProducesOneRecordPerRequest) {
  const RunResult r = runScenario(smallScenario(5, SchemeSpec::flooding(), 15));
  EXPECT_EQ(r.summary.broadcasts, 15u);
}

TEST(Integration, SameSeedSameResult) {
  const ScenarioConfig c = smallScenario(5, SchemeSpec::adaptiveCounter(), 10);
  const RunResult a = runScenario(c);
  const RunResult b = runScenario(c);
  EXPECT_DOUBLE_EQ(a.re(), b.re());
  EXPECT_DOUBLE_EQ(a.srb(), b.srb());
  EXPECT_DOUBLE_EQ(a.latency(), b.latency());
  EXPECT_EQ(a.framesTransmitted, b.framesTransmitted);
}

TEST(Integration, DifferentSeedsDiffer) {
  ScenarioConfig c = smallScenario(5, SchemeSpec::flooding(), 10);
  const RunResult a = runScenario(c);
  c.seed = 12;
  const RunResult b = runScenario(c);
  EXPECT_NE(a.framesTransmitted, b.framesTransmitted);
}

TEST(Integration, FloodingOnDenseConnectedMapReachesAlmostEveryone) {
  const RunResult r = runScenario(smallScenario(1, SchemeSpec::flooding(), 15));
  EXPECT_GT(r.re(), 0.95);
  EXPECT_DOUBLE_EQ(r.srb(), 0.0);  // flooding never saves anything
}

TEST(Integration, CounterTwoSavesALotOnDenseMap) {
  const RunResult r = runScenario(smallScenario(1, SchemeSpec::counter(2), 15));
  EXPECT_GT(r.srb(), 0.7);
  EXPECT_GT(r.re(), 0.9);
}

TEST(Integration, CounterTwoLosesReachabilityOnSparseMap) {
  // The dilemma the paper's adaptive schemes resolve: small C hurts RE when
  // the network is sparse.
  const RunResult c2 =
      runScenario(smallScenario(11, SchemeSpec::counter(2), 30));
  const RunResult c6 =
      runScenario(smallScenario(11, SchemeSpec::counter(6), 30));
  EXPECT_LT(c2.re(), c6.re());
}

TEST(Integration, AdaptiveCounterBeatsFixedSmallThresholdOnSparseMap) {
  const RunResult ac =
      runScenario(smallScenario(9, SchemeSpec::adaptiveCounter(), 30));
  const RunResult c2 =
      runScenario(smallScenario(9, SchemeSpec::counter(2), 30));
  EXPECT_GT(ac.re(), c2.re());
}

TEST(Integration, AdaptiveCounterSavesMoreThanLargeFixedOnDenseMap) {
  const RunResult ac =
      runScenario(smallScenario(1, SchemeSpec::adaptiveCounter(), 15));
  const RunResult c6 =
      runScenario(smallScenario(1, SchemeSpec::counter(6), 15));
  EXPECT_GT(ac.srb(), c6.srb());
}

TEST(Integration, CollisionAblationImprovesFloodingOnDenseMap) {
  // §4.4: "The main reason for a lot of hosts missing the broadcast message
  // is collision." With a perfect PHY, flooding reaches everyone.
  ScenarioConfig with = smallScenario(1, SchemeSpec::flooding(), 15);
  with.numHosts = 80;
  ScenarioConfig without = with;
  without.collisions = false;
  const RunResult rWith = runScenario(with);
  const RunResult rWithout = runScenario(without);
  EXPECT_GE(rWithout.re(), rWith.re());
  EXPECT_GT(rWithout.re(), 0.999);
}

TEST(Integration, HelloTrafficCountedOnlyWhenEnabled) {
  ScenarioConfig oracle = smallScenario(5, SchemeSpec::adaptiveCounter(), 5);
  EXPECT_EQ(runScenario(oracle).summary.hellosSent, 0u);

  ScenarioConfig hello = smallScenario(5, SchemeSpec::neighborCoverage(), 5);
  hello.neighborSource = NeighborSource::kHello;
  const RunResult r = runScenario(hello);
  EXPECT_GT(r.summary.hellosSent, 0u);
  EXPECT_GT(r.hellosPerHostPerSecond, 0.0);
}

TEST(Integration, DynamicHelloIntervalSendsFewerHellosWhenStatic) {
  // Stationary hosts => nv ~ 0 => interval ~ hi_max, so the dynamic agent
  // beacons far less than a fixed hi_min-interval agent once the initial
  // table-convergence churn (which legitimately counts as variation) ends.
  ScenarioConfig fixed = smallScenario(3, SchemeSpec::neighborCoverage(), 40);
  fixed.neighborSource = NeighborSource::kHello;
  fixed.maxSpeedKmh = 0.0;
  fixed.hello.interval = 1 * sim::kSecond;

  ScenarioConfig dynamic = fixed;
  dynamic.hello.dynamic = true;

  const RunResult rFixed = runScenario(fixed);
  const RunResult rDynamic = runScenario(dynamic);
  EXPECT_LT(rDynamic.hellosPerHostPerSecond,
            rFixed.hellosPerHostPerSecond / 2.0);
}

TEST(Integration, DynamicHelloKeepsReachabilityUnderMobility) {
  ScenarioConfig c = smallScenario(5, SchemeSpec::neighborCoverage(), 25);
  c.neighborSource = NeighborSource::kHello;
  c.maxSpeedKmh = 60.0;
  c.hello.dynamic = true;
  const RunResult r = runScenario(c);
  EXPECT_GT(r.re(), 0.8);
}

TEST(Integration, StaleHelloTablesHurtNeighborCoverage) {
  // Fig. 11's message: long hello intervals + fast hosts => lower RE.
  ScenarioConfig fresh = smallScenario(9, SchemeSpec::neighborCoverage(), 25);
  fresh.neighborSource = NeighborSource::kHello;
  fresh.maxSpeedKmh = 80.0;
  fresh.hello.interval = 1 * sim::kSecond;

  ScenarioConfig stale = fresh;
  stale.hello.interval = 30 * sim::kSecond;

  const RunResult rFresh = runScenario(fresh);
  const RunResult rStale = runScenario(stale);
  EXPECT_GT(rFresh.re(), rStale.re());
}

TEST(Integration, AveragedRunsPoolAcrossSeeds) {
  const ScenarioConfig c = smallScenario(5, SchemeSpec::flooding(), 8);
  const RunResult r = runCells({c}, 3, /*threads=*/1).front();
  EXPECT_EQ(r.summary.broadcasts, 24u);
  EXPECT_GT(r.re(), 0.5);
}

TEST(Integration, ResolvedConfigAppliesPaperSpeedRule) {
  ScenarioConfig c;
  c.mapUnits = 7;
  EXPECT_DOUBLE_EQ(c.resolved().maxSpeedKmh, 70.0);
  c.maxSpeedKmh = 25.0;
  EXPECT_DOUBLE_EQ(c.resolved().maxSpeedKmh, 25.0);
}

TEST(IntegrationDeath, ResolvedConfigRejectsOutOfRangeThresholds) {
  ScenarioConfig c;
  c.scheme = SchemeSpec::counter(0);
  EXPECT_DEATH((void)c.resolved(), "Precondition");
  c.scheme = SchemeSpec::location(1.5);
  EXPECT_DEATH((void)c.resolved(), "Precondition");
}

TEST(Integration, ResolvedConfigEnablesHelloForNcUnderHelloSource) {
  // Under HELLO-sourced neighbor information, resolved() turns HELLOs on for
  // exactly the schemes that read |N_x| (AC, AL, NC), and turns on neighbor
  // list piggybacking only for the one that reads N_{x,h} (NC). Both start
  // off here, since piggybacking defaults to on.
  struct Row {
    SchemeSpec scheme;
    bool hello;
    bool piggyback;
  };
  const Row rows[] = {
      {SchemeSpec::flooding(), false, false},
      {SchemeSpec::counter(3), false, false},
      {SchemeSpec::location(0.0134), false, false},
      {SchemeSpec::adaptiveCounter(), true, false},
      {SchemeSpec::adaptiveLocation(), true, false},
      {SchemeSpec::neighborCoverage(), true, true},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.scheme.name());
    ScenarioConfig c;
    c.scheme = row.scheme;
    c.neighborSource = NeighborSource::kHello;
    c.hello.enabled = false;
    c.hello.piggybackNeighbors = false;
    const ScenarioConfig r = c.resolved();
    EXPECT_EQ(r.hello.enabled, row.hello);
    EXPECT_EQ(r.hello.piggybackNeighbors, row.piggyback);
    if (row.hello) {
      EXPECT_GT(r.warmup, 2 * sim::kSecond);
    }
  }
}

}  // namespace
}  // namespace manet::experiment
