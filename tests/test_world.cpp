// World assembly and configuration-resolution behaviour.
#include "experiment/world.hpp"

#include <gtest/gtest.h>

#include "experiment/runner.hpp"

namespace manet::experiment {
namespace {

TEST(World, BuildsConfiguredHostCount) {
  ScenarioConfig c;
  c.numHosts = 37;
  c.numBroadcasts = 0;
  World w(c);
  EXPECT_EQ(w.hostCount(), 37u);
  EXPECT_EQ(w.channel().nodeCount(), 37u);
}

TEST(World, FixedPositionsForceHostCount) {
  ScenarioConfig c;
  c.numHosts = 100;  // overridden by the explicit placement
  c.fixedPositions = {{0, 0}, {100, 0}, {200, 0}};
  World w(c);
  EXPECT_EQ(w.hostCount(), 3u);
  EXPECT_EQ(w.channel().positionOf(net::HostId{2}), (geom::Vec2{200, 0}));
}

TEST(World, HostsStartInsideTheMap) {
  ScenarioConfig c;
  c.mapUnits = 7;
  c.numHosts = 80;
  c.numBroadcasts = 0;
  World w(c);
  const double side = c.mapMeters();
  for (const auto& p : w.channel().snapshotPositions()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, side);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, side);
  }
}

TEST(World, OracleNeighborsMatchChannelRange) {
  ScenarioConfig c;
  c.fixedPositions = {{0, 0}, {400, 0}, {800, 0}};
  World w(c);
  EXPECT_EQ(w.oracleNeighborCount(net::HostId{0}), 1);
  EXPECT_EQ(w.oracleNeighborCount(net::HostId{1}), 2);
  EXPECT_EQ(w.oracleNeighbors(net::HostId{1}),
            (std::vector<net::HostId>{net::HostId{0}, net::HostId{2}}));
}

TEST(World, ReachableFromMatchesConnectivity) {
  ScenarioConfig c;
  c.fixedPositions = {{0, 0}, {400, 0}, {5000, 0}};
  World w(c);
  EXPECT_EQ(w.reachableFrom(net::HostId{0}), 1);
  EXPECT_EQ(w.reachableFrom(net::HostId{2}), 0);
}

TEST(World, RunIsSingleShot) {
  ScenarioConfig c;
  c.numHosts = 10;
  c.numBroadcasts = 1;
  World w(c);
  w.run();
  EXPECT_DEATH(w.run(), "Precondition");
}

TEST(World, PolicyMatchesScheme) {
  ScenarioConfig c;
  c.scheme = SchemeSpec::adaptiveLocation();
  c.numBroadcasts = 0;
  World w(c);
  EXPECT_EQ(w.policy().name(), "AL");
}

TEST(World, WorkloadProducesExpectedBroadcastCount) {
  ScenarioConfig c;
  c.numHosts = 20;
  c.numBroadcasts = 7;
  c.seed = 3;
  World w(c);
  w.run();
  EXPECT_EQ(w.metrics().broadcasts().size(), 7u);
  // Requests are spaced by U(0, 2 s): all start times within the horizon.
  sim::TimePoint prev = sim::kTimeZero;
  for (const auto& pb : w.metrics().broadcasts()) {
    EXPECT_GE(pb.start, prev);  // issued in order
    prev = pb.start;
  }
}

TEST(World, InterarrivalRespectsBound) {
  ScenarioConfig c;
  c.numHosts = 20;
  c.numBroadcasts = 30;
  c.interarrivalMax = 500 * sim::kMillisecond;
  c.seed = 5;
  World w(c);
  w.run();
  const auto& records = w.metrics().broadcasts();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i].start - records[i - 1].start,
              500 * sim::kMillisecond);
  }
}

TEST(World, GroupMobilityConfigValidated) {
  ScenarioConfig c;
  c.mobility = ScenarioConfig::Mobility::kGroup;
  c.groupSize = 0;
  c.numBroadcasts = 0;
  EXPECT_DEATH(World{c}, "Precondition");
}

TEST(World, SchemeNamesForTables) {
  EXPECT_EQ(SchemeSpec::flooding().name(), "flooding");
  EXPECT_EQ(SchemeSpec::counter(2).name(), "C=2");
  EXPECT_EQ(SchemeSpec::location(0.0134).name(), "A=0.0134");
  EXPECT_EQ(SchemeSpec::distance(100).name(), "D=100");
  EXPECT_EQ(SchemeSpec::probabilistic(0.5).name(), "P=0.50");
  EXPECT_EQ(SchemeSpec::adaptiveCounter().name(), "AC");
  EXPECT_EQ(SchemeSpec::adaptiveLocation().name(), "AL");
  EXPECT_EQ(SchemeSpec::neighborCoverage().name(), "NC");
  SchemeSpec custom = SchemeSpec::flooding();
  custom.label = "my-label";
  EXPECT_EQ(custom.name(), "my-label");
}

TEST(World, TraceSinkDefaultsToNull) {
  ScenarioConfig c;
  c.numBroadcasts = 0;
  World w(c);
  EXPECT_EQ(w.traceSink(), nullptr);
}

}  // namespace
}  // namespace manet::experiment
