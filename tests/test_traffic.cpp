// Traffic workload subsystem tests (DESIGN.md §12): arrival-process and
// source-model semantics, the bit-identity contract of the default model
// against the pre-subsystem inline loop, and the thread-count invariance of
// the traffic.* metric family.
#include "traffic/arrival.hpp"
#include "traffic/config.hpp"
#include "traffic/generator.hpp"
#include "traffic/source_model.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace manet::traffic {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// The workload stream id World forks off the master seed (world.cpp).
constexpr std::uint64_t kWorkloadStream = 0xF00D;

std::vector<Request> generate(const TrafficConfig& config, int count,
                              std::uint64_t seed,
                              sim::TimePoint start = sim::kTimeZero,
                              int numHosts = 100,
                              sim::Duration uniformMax = 2 * kSecond) {
  const Generator generator(config, numHosts, uniformMax);
  sim::Rng rng(seed);
  return generator.schedule(count, start, rng);
}

bool sameSchedule(const std::vector<Request>& a,
                  const std::vector<Request>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at || a[i].source != b[i].source ||
        a[i].seq != b[i].seq) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------ default-model bit-identity

TEST(TrafficGenerator, DefaultMatchesLegacyInlineLoopDrawForDraw) {
  // The pre-subsystem World::scheduleWorkload loop: per request, one
  // uniformTime(0, interarrivalMax) gap then one uniformInt(0, numHosts-1)
  // source, from the workload stream. The default generator must reproduce
  // it exactly — this is what keeps every figure bench byte-identical.
  const int numHosts = 100;
  const sim::Duration interarrivalMax = 2 * kSecond;
  const sim::Duration warmup = 100 * kMillisecond;
  const int count = 50;

  sim::Rng legacyRng = sim::Rng(42).fork(kWorkloadStream);
  std::vector<Request> legacy;
  sim::TimePoint t = sim::kTimeZero + warmup;
  for (int i = 0; i < count; ++i) {
    t += legacyRng.uniformDuration(sim::Duration{}, interarrivalMax);
    Request r;
    r.at = t;
    r.source = net::HostId{
        static_cast<std::uint32_t>(legacyRng.uniformInt(0, numHosts - 1))};
    r.seq = static_cast<std::uint32_t>(i);
    legacy.push_back(r);
  }

  const Generator generator(TrafficConfig{}, numHosts, interarrivalMax);
  sim::Rng rng = sim::Rng(42).fork(kWorkloadStream);
  EXPECT_TRUE(sameSchedule(legacy, generator.schedule(count, sim::kTimeZero + warmup, rng)));
}

TEST(TrafficWorld, WorldScheduleMatchesLegacyInlineLoop) {
  // Same differential, end to end through World: the schedule the world
  // actually injects equals the hand-rolled legacy draws at the resolved
  // warmup.
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 30;
  config.numBroadcasts = 12;
  config.seed = 7;
  experiment::World world(config);
  world.run();  // the schedule is built when the world starts

  sim::Rng legacyRng = sim::Rng(7).fork(kWorkloadStream);
  sim::TimePoint t = sim::kTimeZero + world.config().warmup;
  const auto& schedule = world.workloadSchedule();
  ASSERT_EQ(schedule.size(), 12u);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    t += legacyRng.uniformDuration(sim::Duration{},
                                   world.config().interarrivalMax);
    EXPECT_EQ(schedule[i].at, t);
    EXPECT_EQ(schedule[i].source,
              net::HostId{static_cast<std::uint32_t>(legacyRng.uniformInt(
                  0, world.config().numHosts - 1))});
    EXPECT_EQ(schedule[i].seq, static_cast<std::uint32_t>(i));
  }
}

// ---------------------------------------------------------- determinism

TEST(TrafficGenerator, SameSeedSameScheduleAcrossModels) {
  std::vector<TrafficConfig> configs;
  configs.emplace_back();  // uniform/uniform default
  {
    TrafficConfig c;
    c.arrival = TrafficConfig::Arrival::kPoisson;
    c.poissonRatePerSecond = 4.0;
    configs.push_back(c);
  }
  {
    TrafficConfig c;
    c.arrival = TrafficConfig::Arrival::kPeriodic;
    c.period = 250 * kMillisecond;
    configs.push_back(c);
  }
  {
    TrafficConfig c;
    c.arrival = TrafficConfig::Arrival::kBurst;
    c.burstLength = 4;
    configs.push_back(c);
  }
  {
    TrafficConfig c;
    c.sources = TrafficConfig::Sources::kHotspot;
    c.hotspotCount = 5;
    configs.push_back(c);
  }
  for (const TrafficConfig& config : configs) {
    EXPECT_TRUE(sameSchedule(generate(config, 40, 11),
                             generate(config, 40, 11)));
    EXPECT_FALSE(sameSchedule(generate(config, 40, 11),
                              generate(config, 40, 12)));
  }
}

TEST(TrafficGenerator, TimesAreNonDecreasingAndSeqIsStreamOrder) {
  TrafficConfig config;
  config.arrival = TrafficConfig::Arrival::kPoisson;
  config.poissonRatePerSecond = 8.0;
  const auto schedule =
      generate(config, 100, 3, /*start=*/sim::kTimeZero + kSecond);
  sim::TimePoint last = sim::kTimeZero + kSecond;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(schedule[i].at, last);
    EXPECT_EQ(schedule[i].seq, static_cast<std::uint32_t>(i));
    last = schedule[i].at;
  }
}

// ------------------------------------------------------- arrival processes

TEST(TrafficArrival, PeriodicGapsAreExactlyThePeriod) {
  TrafficConfig config;
  config.arrival = TrafficConfig::Arrival::kPeriodic;
  config.period = 125 * kMillisecond;
  const auto schedule = generate(config, 20, 5, /*start=*/sim::kTimeZero);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(schedule[i].at,
              sim::kTimeZero +
                  static_cast<std::int64_t>(i + 1) * (125 * kMillisecond));
  }
}

TEST(TrafficArrival, PoissonMeanGapTracksRate) {
  TrafficConfig config;
  config.arrival = TrafficConfig::Arrival::kPoisson;
  config.poissonRatePerSecond = 5.0;  // mean gap 200 ms
  const int count = 4000;
  const auto schedule = generate(config, count, 13);
  const double meanGapSeconds =
      sim::toSeconds(schedule.back().at) / static_cast<double>(count);
  EXPECT_NEAR(meanGapSeconds, 0.2, 0.02);
  // Exponential gaps vary — a degenerate constant stream would be a bug.
  std::set<sim::Duration> gaps;
  for (std::size_t i = 1; i < 50; ++i) {
    gaps.insert(schedule[i].at - schedule[i - 1].at);
  }
  EXPECT_GT(gaps.size(), 10u);
}

TEST(TrafficArrival, BurstAlternatesTightClustersAndIdleGaps) {
  TrafficConfig config;
  config.arrival = TrafficConfig::Arrival::kBurst;
  config.burstLength = 5;
  config.burstGapMax = 10 * kMillisecond;
  config.burstIdleMean = 20 * kSecond;
  const auto schedule = generate(config, 25, 17);  // 5 full bursts
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    const sim::Duration gap = schedule[i].at - schedule[i - 1].at;
    if (i % 5 == 0) {
      // Burst opener: exponential idle with a 20 s mean dwarfs the
      // intra-burst spacing; at this mean, a sub-10 ms idle draw would be a
      // once-in-thousands fluke (P ~ 5e-4 per draw).
      EXPECT_GT(gap, 10 * kMillisecond) << "request " << i;
    } else {
      EXPECT_LE(gap, 10 * kMillisecond) << "request " << i;
    }
  }
}

// ----------------------------------------------------------- source models

TEST(TrafficSources, SwappingSourceModelDoesNotPerturbArrivalTimes) {
  // Arrival gap and source pick are drawn in a fixed per-request order, so
  // the arrival times are identical whatever the source model.
  TrafficConfig uniform;
  TrafficConfig hotspot;
  hotspot.sources = TrafficConfig::Sources::kHotspot;
  hotspot.hotspotCount = 2;
  const auto a = generate(uniform, 30, 19);
  const auto b = generate(hotspot, 30, 19);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
  }
}

TEST(TrafficSources, HotspotPicksOnlyFromTheHotspotSet) {
  TrafficConfig config;
  config.sources = TrafficConfig::Sources::kHotspot;
  config.hotspotCount = 3;
  std::set<net::HostId> seen;
  for (const Request& r : generate(config, 200, 23)) {
    EXPECT_LT(r.source.value(), 3u);
    seen.insert(r.source);
  }
  EXPECT_EQ(seen.size(), 3u);
  // k larger than the population clamps instead of indexing out of range.
  TrafficConfig clamped;
  clamped.sources = TrafficConfig::Sources::kHotspot;
  clamped.hotspotCount = 50;
  for (const Request& r :
       generate(clamped, 100, 29, /*start=*/sim::kTimeZero, /*numHosts=*/10)) {
    EXPECT_LT(r.source.value(), 10u);
  }
}

TEST(TrafficSources, ZoneRestrictsToRectangleAndFallsBackWhenEmpty) {
  // Four hosts, one per quadrant corner of a 1000 m map.
  const std::vector<geom::Vec2> positions = {
      {100, 100}, {900, 100}, {100, 900}, {900, 900}};
  TrafficConfig config;
  config.sources = TrafficConfig::Sources::kZone;  // lower-left quadrant
  const auto zone = makeSourceModel(config, 4, positions, 1000.0);
  sim::Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zone->pick(rng), net::HostId{0});
  }
  // A zone covering no host degrades to uniform-over-all instead of
  // stalling the workload.
  config.zoneX0 = 0.4;
  config.zoneY0 = 0.4;
  config.zoneX1 = 0.6;
  config.zoneY1 = 0.6;
  const auto empty = makeSourceModel(config, 4, positions, 1000.0);
  std::set<net::HostId> seen;
  for (int i = 0; i < 200; ++i) seen.insert(empty->pick(rng));
  EXPECT_EQ(seen.size(), 4u);
}

// -------------------------------------------- delivery accounting (obs)

class ForcedCollection {
 public:
  ForcedCollection() { obs::forceCollection(true); }
  ~ForcedCollection() { obs::forceCollection(false); }
};

experiment::ScenarioConfig accountingConfig() {
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 30;
  config.numBroadcasts = 10;
  config.scheme = experiment::SchemeSpec::counter(3);
  config.seed = 37;
  return config;
}

TEST(TrafficAccounting, OfferedInjectedCompletedAreConsistent) {
  ForcedCollection forced;
  const auto result = experiment::runScenario(accountingConfig());
  ASSERT_NE(result.metrics, nullptr);
  const obs::Registry& reg = *result.metrics;
  const auto offered = reg.counter(obs::Counter::kTrafficOffered);
  const auto injected = reg.counter(obs::Counter::kTrafficInjected);
  const auto blocked = reg.counter(obs::Counter::kTrafficBlockedHostDown);
  const auto completed = reg.counter(obs::Counter::kTrafficCompleted);
  EXPECT_EQ(offered, 10u);
  EXPECT_EQ(offered, result.offeredBroadcasts);
  EXPECT_EQ(injected + blocked, offered);
  EXPECT_EQ(blocked, 0u);  // no churn: every source is up at fire time
  EXPECT_EQ(completed, result.summary.broadcasts);
  EXPECT_EQ(reg.counter(obs::Counter::kTrafficDeliveredCopies),
            result.summary.totalReceived);
  EXPECT_EQ(reg.counter(obs::Counter::kTrafficReachableSum),
            result.summary.totalReachable);
  EXPECT_EQ(reg.histogram(obs::Hist::kTrafficLatencyUs).count(), completed);
  EXPECT_EQ(reg.histogram(obs::Hist::kTrafficDeliveryPct).count(),
            completed);
}

TEST(TrafficAccounting, MetricsAreThreadCountInvariant) {
  // The traffic.* family folds per-broadcast records into each repetition's
  // private registry and merges in repetition order, so the serialized
  // metrics are byte-identical for any MANET_THREADS.
  ForcedCollection forced;
  experiment::ScenarioConfig config = accountingConfig();
  config.traffic.arrival = TrafficConfig::Arrival::kPoisson;
  config.traffic.poissonRatePerSecond = 2.0;
  const auto serial = experiment::runScenarioAveraged(config, 4, 1);
  const auto parallel = experiment::runScenarioAveraged(config, 4, 4);
  ASSERT_NE(serial.metrics, nullptr);
  ASSERT_NE(parallel.metrics, nullptr);
  EXPECT_EQ(obs::metricsJson(*serial.metrics, /*includeTiming=*/false),
            obs::metricsJson(*parallel.metrics, /*includeTiming=*/false));
  EXPECT_GT(serial.metrics->counter(obs::Counter::kTrafficCompleted), 0u);
}

}  // namespace
}  // namespace manet::traffic
