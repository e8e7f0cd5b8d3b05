#include <gtest/gtest.h>

#include <set>

#include "experiment/world.hpp"
#include "stats/connectivity.hpp"
#include "trace/recorder.hpp"
#include "stats/metrics.hpp"
#include "stats/summary.hpp"

namespace manet::stats {
namespace {

using geom::Vec2;

// ----------------------------------------------------------- connectivity

TEST(Connectivity, SingleHostReachesNothing) {
  EXPECT_EQ(reachableCount({{0, 0}}, 500.0, 0), 0);
}

TEST(Connectivity, LineTopologyIsFullyReachable) {
  std::vector<Vec2> line;
  for (int i = 0; i < 6; ++i) line.push_back({i * 400.0, 0});
  EXPECT_EQ(reachableCount(line, 500.0, 0), 5);
  EXPECT_EQ(reachableCount(line, 500.0, 3), 5);  // from the middle too
}

TEST(Connectivity, PartitionIsRespected) {
  const std::vector<Vec2> pos{{0, 0}, {400, 0}, {5000, 0}, {5400, 0}};
  EXPECT_EQ(reachableCount(pos, 500.0, 0), 1);
  EXPECT_EQ(reachableCount(pos, 500.0, 2), 1);
}

TEST(Connectivity, ReachableSetContents) {
  const std::vector<Vec2> pos{{0, 0}, {400, 0}, {5000, 0}};
  EXPECT_EQ(reachableSet(pos, 500.0, 0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(reachableSet(pos, 500.0, 2), (std::vector<std::size_t>{}));
}

TEST(Connectivity, RangeBoundaryInclusive) {
  const std::vector<Vec2> pos{{0, 0}, {500, 0}};
  EXPECT_EQ(reachableCount(pos, 500.0, 0), 1);
  const std::vector<Vec2> pos2{{0, 0}, {500.01, 0}};
  EXPECT_EQ(reachableCount(pos2, 500.0, 0), 0);
}

TEST(Connectivity, ComponentLabels) {
  const std::vector<Vec2> pos{{0, 0}, {400, 0}, {5000, 0}, {5400, 0}, {9999, 9999}};
  const auto labels = componentLabels(pos, 500.0);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_NE(labels[4], labels[0]);
  EXPECT_NE(labels[4], labels[2]);
}

TEST(Connectivity, IsConnected) {
  EXPECT_TRUE(isConnected({{0, 0}, {400, 0}, {800, 0}}, 500.0));
  EXPECT_FALSE(isConnected({{0, 0}, {400, 0}, {2000, 0}}, 500.0));
  EXPECT_TRUE(isConnected({}, 500.0));
  EXPECT_TRUE(isConnected({{1, 1}}, 500.0));
}

TEST(Connectivity, AverageDegree) {
  // Triangle with all pairs in range: every host has degree 2.
  EXPECT_DOUBLE_EQ(averageDegree({{0, 0}, {300, 0}, {0, 300}}, 500.0), 2.0);
  EXPECT_DOUBLE_EQ(averageDegree({{0, 0}, {5000, 0}}, 500.0), 0.0);
}

// ---------------------------------------------------------------- metrics

constexpr net::HostId H(std::uint32_t id) { return net::HostId{id}; }

net::BroadcastId bid(std::uint32_t origin, std::uint32_t seq = 0) {
  return net::BroadcastId{H(origin), net::BroadcastSeq{seq}};
}

TEST(Metrics, ReachabilityDefinition) {
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0), H(0), sim::TimePoint{1000}, /*reachable=*/4);
  m.onDelivered(bid(0), H(1), sim::TimePoint{2000});
  m.onDelivered(bid(0), H(2), sim::TimePoint{2500});
  const auto& pb = m.broadcasts().at(0);
  EXPECT_EQ(pb.received, 2);
  EXPECT_DOUBLE_EQ(pb.reachability(), 0.5);
}

// Under flooding every host hears many intact copies of each broadcast. r
// counts each host once: a host reports only its first copy to the
// collector (later ones are trace duplicates), so r equals the number of
// distinct hosts with a delivery event.
TEST(Metrics, DuplicateDeliveriesCountOnce) {
  experiment::ScenarioConfig config;
  config.mapUnits = 1;
  config.numHosts = 20;
  config.numBroadcasts = 4;
  config.scheme = experiment::SchemeSpec::flooding();
  config.seed = 3;
  trace::Recorder recorder;
  experiment::World world(config);
  world.setTraceSink(&recorder);
  world.run();

  EXPECT_GT(recorder.countOf(trace::EventKind::kDuplicateHeard), 0u);
  ASSERT_EQ(world.metrics().broadcasts().size(), 4u);
  for (const PerBroadcast& pb : world.metrics().broadcasts()) {
    std::set<std::uint32_t> hosts;
    for (const trace::Event& e :
         recorder.select(trace::EventKind::kDelivered, pb.bid)) {
      EXPECT_TRUE(hosts.insert(e.node.value()).second)
          << "host " << e.node.value() << " delivered twice";
    }
    EXPECT_EQ(pb.received, static_cast<int>(hosts.size()));
    EXPECT_LE(pb.received, config.numHosts - 1);
  }
}

// Two hosts in range: the relay's rebroadcast echoes back to the source
// intact, and that echo is not one of the r hosts that received the packet.
TEST(Metrics, SourceDeliveryDoesNotCount) {
  experiment::ScenarioConfig config;
  config.fixedPositions = {Vec2{0, 0}, Vec2{100, 0}};
  config.numBroadcasts = 1;
  config.scheme = experiment::SchemeSpec::flooding();
  config.seed = 3;
  trace::Recorder recorder;
  experiment::World world(config);
  world.setTraceSink(&recorder);
  world.run();

  ASSERT_EQ(world.metrics().broadcasts().size(), 1u);
  const PerBroadcast& pb = world.metrics().broadcasts().at(0);
  const auto echoes =
      recorder.select(trace::EventKind::kDuplicateHeard, pb.bid);
  ASSERT_EQ(echoes.size(), 1u);
  EXPECT_EQ(echoes[0].node, pb.bid.origin);
  EXPECT_EQ(pb.received, 1);
  EXPECT_EQ(pb.rebroadcast, 1);
}

TEST(Metrics, SavedRebroadcastDefinition) {
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0), H(0), sim::TimePoint{1000}, 9);
  for (std::uint32_t h = 1; h <= 4; ++h) {
    m.onDelivered(bid(0), H(h), sim::TimePoint{2000});
  }
  m.onRebroadcast(bid(0), H(1), sim::TimePoint{2500});
  // r = 4, t = 1: SRB = 3/4.
  EXPECT_DOUBLE_EQ(m.broadcasts().at(0).savedRebroadcast(), 0.75);
}

TEST(Metrics, SrbZeroWhenNothingReceived) {
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0), H(0), sim::TimePoint{1000}, 9);
  EXPECT_DOUBLE_EQ(m.broadcasts().at(0).savedRebroadcast(), 0.0);
}

TEST(Metrics, LatencyIsLastFinalization) {
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0), H(0), sim::TimePoint{1'000'000}, 9);
  m.onDelivered(bid(0), H(1), sim::TimePoint{1'100'000});
  m.onFinalized(bid(0), H(1), sim::TimePoint{1'500'000});   // host 1 inhibited at +0.5 s
  m.onRebroadcast(bid(0), H(2), sim::TimePoint{1'200'000});
  m.onFinalized(bid(0), H(2), sim::TimePoint{1'300'000});   // host 2 finished tx at +0.3 s
  EXPECT_DOUBLE_EQ(m.broadcasts().at(0).latencySeconds(), 0.5);
}

TEST(Metrics, ReachabilityClampedToOne) {
  // Mobility can bring extra hosts into the flood after the snapshot.
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0), H(0), sim::TimePoint{0}, /*reachable=*/1);
  m.onDelivered(bid(0), H(1), sim::TimePoint{1});
  m.onDelivered(bid(0), H(2), sim::TimePoint{2});
  EXPECT_DOUBLE_EQ(m.broadcasts().at(0).reachability(), 1.0);
}

TEST(Metrics, IsolatedSourceCountsAsFullyReached) {
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0), H(0), sim::TimePoint{0}, /*reachable=*/0);
  EXPECT_DOUBLE_EQ(m.broadcasts().at(0).reachability(), 1.0);
}

TEST(Metrics, SummaryAveragesAcrossBroadcasts) {
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0, 0), H(0), sim::TimePoint{0}, 2);
  m.onDelivered(bid(0, 0), H(1), sim::TimePoint{10});
  m.onDelivered(bid(0, 0), H(2), sim::TimePoint{20});   // RE 1.0
  m.onBroadcastStart(bid(0, 1), H(0), sim::TimePoint{100}, 2);
  m.onDelivered(bid(0, 1), H(1), sim::TimePoint{110});  // RE 0.5
  const RunSummary s = m.summarize();
  EXPECT_EQ(s.broadcasts, 2u);
  EXPECT_DOUBLE_EQ(s.meanRe, 0.75);
}

TEST(Metrics, IsolatedBroadcastExcludedFromReMean) {
  MetricsCollector m(10);
  m.onBroadcastStart(bid(0, 0), H(0), sim::TimePoint{0}, 0);   // e = 0: excluded
  m.onBroadcastStart(bid(0, 1), H(0), sim::TimePoint{100}, 2);
  m.onDelivered(bid(0, 1), H(1), sim::TimePoint{110});
  EXPECT_DOUBLE_EQ(m.summarize().meanRe, 0.5);
}

TEST(Metrics, HelloCounter) {
  MetricsCollector m(4);
  m.onHelloSent(H(0));
  m.onHelloSent(H(1));
  m.onHelloSent(H(0));
  EXPECT_EQ(m.hellosSent(), 3u);
  EXPECT_EQ(m.summarize().hellosSent, 3u);
}

TEST(Metrics, DataFrameAccounting) {
  MetricsCollector m(4);
  m.onBroadcastStart(bid(0), H(0), sim::TimePoint{0}, 3);
  m.onDelivered(bid(0), H(1), sim::TimePoint{10});
  m.onRebroadcast(bid(0), H(1), sim::TimePoint{20});
  EXPECT_EQ(m.summarize().dataFramesSent, 2u);  // source + 1 relay
}

TEST(MetricsDeath, UnknownBroadcastRejected) {
  MetricsCollector m(4);
  EXPECT_DEATH(m.onDelivered(bid(9), H(1), sim::TimePoint{0}), "Precondition");
}

// ---------------------------------------------------------------- summary

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyAndSingle) {
  RunningStat s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(RunningStat, CiShrinksWithSamples) {
  RunningStat small;
  RunningStat large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95(), large.ci95());
}

}  // namespace
}  // namespace manet::stats
