#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "trace/recorder.hpp"
#include "trace/timeline.hpp"
#include "trace/writer.hpp"

namespace manet::trace {
namespace {

constexpr net::BroadcastId B(std::uint32_t origin, std::uint32_t seq) {
  return net::BroadcastId{net::HostId{origin}, net::BroadcastSeq{seq}};
}

Event makeEvent(EventKind kind, std::int64_t at, std::uint32_t node,
                net::BroadcastId bid = {},
                std::uint32_t from = net::kInvalidHost.value()) {
  Event e;
  e.kind = kind;
  e.at = sim::TimePoint{at};
  e.node = net::HostId{node};
  e.bid = bid;
  e.from = net::HostId{from};
  return e;
}

// ------------------------------------------------------------- recorder

TEST(Recorder, StoresEventsInOrder) {
  Recorder r;
  r.onEvent(makeEvent(EventKind::kDelivered, 10, 1));
  r.onEvent(makeEvent(EventKind::kTxStarted, 20, 2));
  ASSERT_EQ(r.events().size(), 2u);
  EXPECT_EQ(r.events()[0].at, sim::TimePoint{10});
  EXPECT_EQ(r.events()[1].node, net::HostId{2});
}

TEST(Recorder, CountsByKind) {
  Recorder r;
  for (int i = 0; i < 3; ++i) {
    r.onEvent(makeEvent(EventKind::kDrop, i, 0));
  }
  r.onEvent(makeEvent(EventKind::kHelloSent, 5, 0));
  EXPECT_EQ(r.countOf(EventKind::kDrop), 3u);
  EXPECT_EQ(r.countOf(EventKind::kHelloSent), 1u);
  EXPECT_EQ(r.countOf(EventKind::kInhibited), 0u);
  EXPECT_EQ(r.totalSeen(), 4u);
}

TEST(Recorder, CountsDropsByReason) {
  Recorder r;
  Event e = makeEvent(EventKind::kDrop, 1, 0);
  e.drop = phy::DropReason::kCollision;
  r.onEvent(e);
  r.onEvent(e);
  e.drop = phy::DropReason::kHalfDuplex;
  r.onEvent(e);
  EXPECT_EQ(r.countOfDrop(phy::DropReason::kCollision), 2u);
  EXPECT_EQ(r.countOfDrop(phy::DropReason::kHalfDuplex), 1u);
  EXPECT_EQ(r.countOfDrop(phy::DropReason::kNone), 0u);
  EXPECT_EQ(r.countOf(EventKind::kDrop), 3u);
}

TEST(Recorder, SelectFiltersKindAndBid) {
  Recorder r;
  const net::BroadcastId a = B(1, 0);
  const net::BroadcastId b = B(2, 0);
  r.onEvent(makeEvent(EventKind::kDelivered, 1, 5, a));
  r.onEvent(makeEvent(EventKind::kDelivered, 2, 6, b));
  r.onEvent(makeEvent(EventKind::kTxStarted, 3, 5, a));
  const auto sel = r.select(EventKind::kDelivered, a);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0].node, net::HostId{5});
}

// ------------------------------------------------------------- timeline

TEST(Timeline, BuildsFromHandcraftedEvents) {
  const net::BroadcastId bid = B(0, 0);
  std::vector<Event> events{
      makeEvent(EventKind::kBroadcastOriginated, 100, 0, bid),
      makeEvent(EventKind::kTxStarted, 150, 0, bid),
      makeEvent(EventKind::kTxFinished, 2582, 0, bid),
      makeEvent(EventKind::kDelivered, 2582, 1, bid, 0),
      makeEvent(EventKind::kTxStarted, 3000, 1, bid),
      makeEvent(EventKind::kTxFinished, 5432, 1, bid),
      makeEvent(EventKind::kDelivered, 5432, 2, bid, 1),
      makeEvent(EventKind::kDuplicateHeard, 6000, 2, bid, 1),
      makeEvent(EventKind::kInhibited, 6000, 2, bid),
  };
  const auto tl = buildTimeline(events, bid);
  ASSERT_TRUE(tl.has_value());
  EXPECT_EQ(tl->source, net::HostId{0});
  EXPECT_EQ(tl->originatedAt, sim::TimePoint{100});
  EXPECT_EQ(tl->receivedCount(), 2);
  EXPECT_EQ(tl->rebroadcastCount(), 1);
  EXPECT_EQ(tl->inhibitedCount(), 1);
  EXPECT_EQ(tl->completionTime, sim::Duration{6000 - 100});
  // Outcomes sorted by delivery time.
  EXPECT_EQ(tl->outcomes[0].node, net::HostId{1});
  EXPECT_EQ(tl->outcomes[1].node, net::HostId{2});
  EXPECT_EQ(tl->outcomes[1].duplicatesHeard, 1);
}

TEST(Timeline, MissingBroadcastGivesNullopt) {
  EXPECT_FALSE(buildTimeline({}, B(9, 9)).has_value());
}

TEST(Timeline, RenderMentionsCounts) {
  const net::BroadcastId bid = B(3, 7);
  std::vector<Event> events{
      makeEvent(EventKind::kBroadcastOriginated, 0, 3, bid),
      makeEvent(EventKind::kDelivered, 10, 4, bid, 3),
  };
  const auto tl = buildTimeline(events, bid);
  ASSERT_TRUE(tl.has_value());
  const std::string text = tl->render();
  EXPECT_NE(text.find("received 1"), std::string::npos);
  EXPECT_NE(text.find("host 4"), std::string::npos);
}

TEST(Timeline, BroadcastsInListsOrigins) {
  std::vector<Event> events{
      makeEvent(EventKind::kBroadcastOriginated, 0, 1, B(1, 0)),
      makeEvent(EventKind::kDelivered, 5, 2, B(1, 0)),
      makeEvent(EventKind::kBroadcastOriginated, 10, 2, B(2, 0)),
  };
  const auto bids = broadcastsIn(events);
  ASSERT_EQ(bids.size(), 2u);
  EXPECT_EQ(bids[0], B(1, 0));
  EXPECT_EQ(bids[1], B(2, 0));
}

// --------------------------------------------------------------- writer

TEST(Writer, CsvHasHeaderAndRows) {
  std::vector<Event> events{
      makeEvent(EventKind::kDelivered, 42, 1, B(0, 3), 0),
      makeEvent(EventKind::kHelloSent, 50, 2),
  };
  std::ostringstream os;
  writeCsv(os, events);
  const std::string text = os.str();
  EXPECT_NE(text.find("time_us,kind,node,origin,seq,from,x,y,reason"),
            std::string::npos);
  EXPECT_NE(text.find("42,delivered,1,0,3,0,"), std::string::npos);
  EXPECT_NE(text.find("50,hello,2,,,,"), std::string::npos);
}

TEST(Writer, CsvDropRowsCarryReason) {
  Event e = makeEvent(EventKind::kDrop, 10, 4, B(2, 1), 7);
  e.drop = phy::DropReason::kHalfDuplex;
  std::ostringstream os;
  writeCsv(os, {&e, 1});
  EXPECT_NE(os.str().find("10,drop,4,2,1,7,0,0,half_duplex"),
            std::string::npos);
}

TEST(Writer, FormatEventIsReadable) {
  const std::string line =
      formatEvent(makeEvent(EventKind::kTxStarted, 7, 3, B(1, 2), 9));
  EXPECT_NE(line.find("tx_start"), std::string::npos);
  EXPECT_NE(line.find("node=3"), std::string::npos);
  EXPECT_NE(line.find("bid=(1,2)"), std::string::npos);
  EXPECT_NE(line.find("from=9"), std::string::npos);
}

TEST(EventKindNames, AllDistinct) {
  const EventKind kinds[] = {
      EventKind::kBroadcastOriginated, EventKind::kTxStarted,
      EventKind::kTxFinished,          EventKind::kDelivered,
      EventKind::kDuplicateHeard,      EventKind::kDrop,
      EventKind::kInhibited,           EventKind::kHelloSent,
      EventKind::kAuditViolation};
  for (const auto a : kinds) {
    for (const auto b : kinds) {
      if (a != b) {
        EXPECT_STRNE(eventKindName(a), eventKindName(b));
      }
    }
  }
}

// --------------------------------------------- integration with the world

TEST(TraceIntegration, FullRunEmitsConsistentEvents) {
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 30;
  config.numBroadcasts = 5;
  config.scheme = experiment::SchemeSpec::counter(2);
  config.seed = 8;

  Recorder recorder;
  experiment::World world(config);
  world.setTraceSink(&recorder);
  world.run();

  EXPECT_EQ(recorder.countOf(EventKind::kBroadcastOriginated), 5u);
  // Trace and metrics must agree on aggregate counts.
  const auto summary = world.metrics().summarize();
  std::uint64_t delivered = 0;
  for (const auto& pb : world.metrics().broadcasts()) {
    delivered += static_cast<std::uint64_t>(pb.received);
  }
  EXPECT_EQ(recorder.countOf(EventKind::kDelivered), delivered);
  EXPECT_EQ(recorder.countOf(EventKind::kTxStarted), summary.dataFramesSent);
  EXPECT_EQ(recorder.countOf(EventKind::kHelloSent), summary.hellosSent);
}

TEST(TraceIntegration, TracingDoesNotPerturbTheRun) {
  experiment::ScenarioConfig config;
  config.mapUnits = 5;
  config.numHosts = 40;
  config.numBroadcasts = 8;
  config.scheme = experiment::SchemeSpec::adaptiveLocation();
  config.seed = 13;

  experiment::World plain(config);
  plain.run();

  Recorder recorder;
  experiment::World traced(config);
  traced.setTraceSink(&recorder);
  traced.run();

  EXPECT_EQ(plain.channel().framesTransmitted(),
            traced.channel().framesTransmitted());
  EXPECT_DOUBLE_EQ(plain.metrics().summarize().meanRe,
                   traced.metrics().summarize().meanRe);
  EXPECT_GT(recorder.totalSeen(), 0u);
  // Trajectories too, to the bit: reading a position for a trace event
  // must not advance a mobility model's integrator.
  const std::vector<geom::Vec2> plainEnd = plain.channel().snapshotPositions();
  const std::vector<geom::Vec2> tracedEnd =
      traced.channel().snapshotPositions();
  ASSERT_EQ(plainEnd.size(), tracedEnd.size());
  for (std::size_t i = 0; i < plainEnd.size(); ++i) {
    EXPECT_EQ(plainEnd[i].x, tracedEnd[i].x) << "host " << i;
    EXPECT_EQ(plainEnd[i].y, tracedEnd[i].y) << "host " << i;
  }
}

/// An event's position is the host's position at the event: with the grid
/// on, the host may still have epochs to replay, and the peek replays them
/// on its copy, so the positions have the bits of the exhaustive scan's.
TEST(TraceIntegration, EventPositionsAreTheSameWithGridOnAndOff) {
  experiment::ScenarioConfig config;
  config.mapUnits = 5;
  config.numHosts = 40;
  config.numBroadcasts = 8;
  config.scheme = experiment::SchemeSpec::adaptiveLocation();
  config.seed = 13;

  Recorder viaGrid;
  Recorder viaScan;
  for (Recorder* recorder : {&viaGrid, &viaScan}) {
    config.channelGrid = recorder == &viaGrid;
    experiment::World world(config);
    world.setTraceSink(recorder);
    world.run();
  }
  ASSERT_EQ(viaGrid.events().size(), viaScan.events().size());
  ASSERT_GT(viaGrid.events().size(), 0u);
  for (std::size_t i = 0; i < viaGrid.events().size(); ++i) {
    const Event& a = viaGrid.events()[i];
    const Event& b = viaScan.events()[i];
    ASSERT_EQ(a.at, b.at) << "event " << i;
    ASSERT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.position.x),
              std::bit_cast<std::uint64_t>(b.position.x))
        << "event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.position.y),
              std::bit_cast<std::uint64_t>(b.position.y))
        << "event " << i;
  }
}

TEST(TraceIntegration, TimelineMatchesMetricsPerBroadcast) {
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 25;
  config.numBroadcasts = 4;
  config.scheme = experiment::SchemeSpec::counter(3);
  config.seed = 21;

  Recorder recorder;
  experiment::World world(config);
  world.setTraceSink(&recorder);
  world.run();

  for (const auto& pb : world.metrics().broadcasts()) {
    const auto tl = buildTimeline(recorder.events(), pb.bid);
    ASSERT_TRUE(tl.has_value());
    EXPECT_EQ(tl->receivedCount(), pb.received);
    EXPECT_EQ(tl->rebroadcastCount(), pb.rebroadcast);
  }
}

}  // namespace
}  // namespace manet::trace
