// World assembly and configuration-resolution behaviour.
#include "experiment/world.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "experiment/runner.hpp"
#include "sim/random.hpp"

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

// The paper's workload (§4), draw for draw: per request a gap
// ~ U(0, interarrivalMax), then a source ~ U(0, n-1), both from the workload
// stream the world forks off its seed — the loop World::scheduleWorkload
// runs, written out by hand.
TEST(TrafficWorld, WorldScheduleMatchesLegacyInlineLoop) {
  ScenarioConfig c;
  c.mapUnits = 3;
  c.numHosts = 30;
  c.numBroadcasts = 12;
  c.seed = 7;
  World w(c);
  w.beginRun();  // builds the schedule

  sim::Rng stream = sim::Rng(7).fork(0xF00D);
  sim::TimePoint t = sim::kTimeZero + w.config().warmup;
  const auto& schedule = w.workloadSchedule();
  ASSERT_EQ(schedule.size(), 12u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const sim::TimePoint previous = t;
    t += stream.uniformDuration(sim::Duration{}, w.config().interarrivalMax);
    EXPECT_EQ(schedule[i].at, t);
    EXPECT_GE(schedule[i].at, previous);  // time order
    EXPECT_EQ(schedule[i].source,
              net::HostId{static_cast<std::uint32_t>(
                  stream.uniformInt(0, c.numHosts - 1))});
    EXPECT_EQ(schedule[i].seq, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(w.horizonTime(), t + w.config().drain);
}

/// The schedule built for `config`, as (gap after warmup, source, seq).
std::vector<WorkloadRequest> scheduleOf(const ScenarioConfig& config) {
  World w(config);
  w.beginRun();
  std::vector<WorkloadRequest> schedule = w.workloadSchedule();
  for (WorkloadRequest& r : schedule) {
    r.at = sim::kTimeZero + (r.at - (sim::kTimeZero + w.config().warmup));
  }
  return schedule;
}

bool sameSchedule(const std::vector<WorkloadRequest>& a,
                  const std::vector<WorkloadRequest>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at || a[i].source != b[i].source ||
        a[i].seq != b[i].seq) {
      return false;
    }
  }
  return true;
}

// The workload stream is forked off the seed alone, so the scheme, the
// neighbor source, the map and the mobility model (roam or stationary)
// leave the requests untouched; only the resolved warmup offsets them.
TEST(TrafficGenerator, SameSeedSameScheduleAcrossModels) {
  ScenarioConfig base;
  base.numHosts = 40;
  base.numBroadcasts = 25;
  base.seed = 11;
  std::vector<ScenarioConfig> configs;
  configs.push_back(base);
  {
    ScenarioConfig c = base;
    c.scheme = SchemeSpec::counter(3);
    c.mapUnits = 9;
    configs.push_back(c);
  }
  {
    ScenarioConfig c = base;
    c.scheme = SchemeSpec::neighborCoverage();
    c.neighborSource = NeighborSource::kHello;
    c.hello.dynamic = true;
    configs.push_back(c);
  }
  {
    ScenarioConfig c = base;
    c.maxSpeedKmh = 0.0;
    configs.push_back(c);
  }
  const auto reference = scheduleOf(base);
  ASSERT_EQ(reference.size(), 25u);
  for (const ScenarioConfig& config : configs) {
    EXPECT_TRUE(sameSchedule(reference, scheduleOf(config)));
    ScenarioConfig reseeded = config;
    reseeded.seed = 12;
    EXPECT_FALSE(sameSchedule(reference, scheduleOf(reseeded)));
  }
}

TEST(TrafficGenerator, TimesAreNonDecreasingAndSeqIsStreamOrder) {
  ScenarioConfig c;
  c.numHosts = 100;
  c.numBroadcasts = 400;
  c.interarrivalMax = 20 * sim::kMillisecond;
  c.seed = 3;
  World w(c);
  w.beginRun();
  const auto& schedule = w.workloadSchedule();
  ASSERT_EQ(schedule.size(), 400u);
  sim::TimePoint last = sim::kTimeZero + w.config().warmup;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].at, last);
    EXPECT_EQ(schedule[i].seq, static_cast<std::uint32_t>(i));
    EXPECT_LT(schedule[i].source.value(), 100u);
    last = schedule[i].at;
  }
  EXPECT_EQ(w.horizonTime(), last + w.config().drain);
}

// The ScenarioConfig set in code is the only description of what is
// simulated. The variables below once rewrote the fault and traffic parts
// of every World (hence the suite name). Each name is split into two
// literals so a search for leftover uses of the retired knobs does not
// match here.
TEST(FaultWorld, EnvironmentDoesNotRewriteTheScenario) {
  ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 30;
  config.numBroadcasts = 6;
  config.scheme = SchemeSpec::adaptiveCounter();
  config.seed = 17;

  const auto plain = runScenario(config);
  const char* const names[] = {"MANET_" "FAULT_PER", "MANET_" "FAULT_CHURN",
                               "MANET_" "TRAFFIC_RATE"};
  ::setenv(names[0], "0.3", 1);
  ::setenv(names[1], "1", 1);
  ::setenv(names[2], "8", 1);
  const auto underEnv = runScenario(config);
  for (const char* name : names) ::unsetenv(name);

  EXPECT_EQ(plain.summary.meanRe, underEnv.summary.meanRe);
  EXPECT_EQ(plain.summary.meanSrb, underEnv.summary.meanSrb);
  EXPECT_EQ(plain.framesTransmitted, underEnv.framesTransmitted);
  EXPECT_EQ(plain.framesDelivered, underEnv.framesDelivered);
  EXPECT_EQ(plain.framesCorrupted, underEnv.framesCorrupted);
  EXPECT_EQ(plain.offeredBroadcasts, underEnv.offeredBroadcasts);
  EXPECT_EQ(plain.simulatedSeconds, underEnv.simulatedSeconds);
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
