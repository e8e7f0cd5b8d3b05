// Differential tests for the channel's anchored spatial grid index: under
// mobility, across densities, the grid-backed range queries, reachability
// counts and transmit delivery sets must match the exhaustive-scan fallback
// exactly (DESIGN.md §7.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "experiment/model_positions.hpp"
#include "experiment/world.hpp"
#include "mobility/map.hpp"
#include "mobility/random_roam.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/connectivity.hpp"

namespace manet::phy {
namespace {

using net::HostId;

class Sink : public Channel::Listener {
 public:
  struct Rx {
    HostId from;
    bool corrupted;
    sim::TimePoint at;
    friend bool operator==(const Rx&, const Rx&) = default;
  };
  void onFrameReceived(const Frame& frame, DropReason drop) override {
    receptions.push_back({frame.src, drop != DropReason::kNone, frame.txEnd});
  }
  std::vector<Rx> receptions;
};

/// A channel full of random-roaming hosts positioned by a ModelPositions
/// source at the scheduler clock — the same wiring the real World uses.
struct MobileFixture {
  MobileFixture(int hosts, int mapUnits, std::uint64_t seed) {
    const mobility::MapSpec map = mobility::MapSpec::square(mapUnits);
    sim::Rng master(seed);
    channel = std::make_unique<Channel>(scheduler, PhyParams{}, positions);
    for (int i = 0; i < hosts; ++i) {
      sim::Rng rng = master.fork(0xA000 + static_cast<std::uint64_t>(i));
      mobility::RoamParams roam;
      roam.maxSpeedMps = mobility::kmhToMps(10.0 * mapUnits);
      roam.minTurnDuration = 100 * sim::kMillisecond;
      roam.maxTurnDuration = 2 * sim::kSecond;
      models.push_back(std::make_unique<mobility::RandomRoam>(
          map, map.uniformPoint(rng), roam, rng.fork(0xA0)));
      sinks.push_back(std::make_unique<Sink>());
      positions.add(*models.back());
      channel->attach(HostId{static_cast<std::uint32_t>(i)},
                      sinks.back().get());
    }
  }

  void advance(sim::Duration dt) {
    scheduler.schedule(scheduler.now() + dt, [] {});
    scheduler.runAll();
  }

  sim::Scheduler scheduler;
  experiment::ModelPositions positions{scheduler};
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<mobility::MobilityModel>> models;
  std::vector<std::unique_ptr<Sink>> sinks;
};

TEST(PhyGridDifferential, NodesInRangeMatchesExhaustiveUnderMobility) {
  for (const int mapUnits : {1, 3, 7}) {
    for (const std::uint64_t seed : {11u, 12u}) {
      MobileFixture fx(60, mapUnits, seed);
      for (int epoch = 0; epoch < 25; ++epoch) {
        fx.advance(200 * sim::kMillisecond);
        for (int i = 0; i < 60; ++i) {
          const HostId id{static_cast<std::uint32_t>(i)};
          fx.channel->setGridEnabled(true);
          const auto viaGrid = fx.channel->nodesInRange(id);
          fx.channel->setGridEnabled(false);
          const auto viaScan = fx.channel->nodesInRange(id);
          ASSERT_EQ(viaGrid, viaScan)
              << "map " << mapUnits << " seed " << seed << " epoch " << epoch
              << " node " << i;
        }
      }
    }
  }
}

TEST(PhyGridDifferential, SnapshotPositionsMatchesExhaustive) {
  MobileFixture fx(40, 5, 21);
  for (int epoch = 0; epoch < 10; ++epoch) {
    fx.advance(500 * sim::kMillisecond);
    fx.channel->setGridEnabled(true);
    const auto viaGrid = fx.channel->snapshotPositions();
    fx.channel->setGridEnabled(false);
    const auto viaScan = fx.channel->snapshotPositions();
    ASSERT_EQ(viaGrid, viaScan);
  }
}

/// Runs the same randomized transmission schedule against a grid channel and
/// an exhaustive channel and asserts every node's reception log (sender,
/// corruption flag, timing) is identical.
TEST(PhyGridDifferential, TransmitDeliverySetsMatchExhaustive) {
  for (const int mapUnits : {1, 5}) {
    MobileFixture grid(50, mapUnits, 33);
    MobileFixture scan(50, mapUnits, 33);
    grid.channel->setGridEnabled(true);
    scan.channel->setGridEnabled(false);

    sim::Rng rng(99);
    for (int round = 0; round < 40; ++round) {
      const auto dt = rng.uniformDuration(sim::kMicrosecond, 5 * sim::kMillisecond);
      const HostId src{static_cast<std::uint32_t>(rng.uniformInt(0, 49))};
      for (MobileFixture* fx : {&grid, &scan}) {
        fx->advance(dt);
        if (!fx->channel->isTransmitting(src)) {
          fx->channel->transmit(src, net::makeDataPacket({src, net::BroadcastSeq{0}}, src), 280);
        }
        fx->scheduler.runAll();
      }
    }

    ASSERT_EQ(grid.channel->framesTransmitted(),
              scan.channel->framesTransmitted());
    EXPECT_EQ(grid.channel->framesDelivered(),
              scan.channel->framesDelivered());
    EXPECT_EQ(grid.channel->framesCorrupted(),
              scan.channel->framesCorrupted());
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(grid.sinks[i]->receptions, scan.sinks[i]->receptions)
          << "map " << mapUnits << " node " << i;
    }
  }
}

/// Bitwise equality: tells +0.0 from -0.0, unlike operator==.
bool sameBits(geom::Vec2 a, geom::Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) ==
             std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

/// Whole-simulation differential: a full scenario run must be bit-identical
/// with the grid on and off (same RNG draws, same event order, same
/// per-broadcast records), and end with every host at the same bits, on
/// the paper's densest, middle and sparsest maps, for a counter, a
/// location and a HELLO-fed neighbor-coverage scheme. The location schemes
/// read positions between grid epochs.
TEST(PhyGridDifferential, FullScenarioIsIdenticalWithGridOnAndOff) {
  experiment::SchemeSpec ncDhi = experiment::SchemeSpec::neighborCoverage();
  ncDhi.label = "NC-DHI";
  for (const experiment::SchemeSpec& scheme :
       {experiment::SchemeSpec::adaptiveCounter(),
        experiment::SchemeSpec::adaptiveLocation(), ncDhi}) {
    for (const int mapUnits : {1, 3, 5, 11}) {
      SCOPED_TRACE(scheme.label + " on map " + std::to_string(mapUnits));
      experiment::ScenarioConfig config;
      config.mapUnits = mapUnits;
      config.numHosts = 60;
      config.numBroadcasts = 8;
      config.scheme = scheme;
      config.seed = 5;
      if (scheme.label == "NC-DHI") {
        config.neighborSource = experiment::NeighborSource::kHello;
        config.hello.dynamic = true;
      }
      config.channelGrid = true;
      experiment::World withGrid(config);
      withGrid.run();
      config.channelGrid = false;
      experiment::World without(config);
      without.run();
      ASSERT_TRUE(withGrid.channel().gridEnabled());
      ASSERT_FALSE(without.channel().gridEnabled());

      const auto& a = withGrid.metrics().broadcasts();
      const auto& b = without.metrics().broadcasts();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].bid, b[i].bid) << "broadcast " << i;
        EXPECT_EQ(a[i].start, b[i].start) << "broadcast " << i;
        EXPECT_EQ(a[i].reachable, b[i].reachable) << "broadcast " << i;
        EXPECT_EQ(a[i].received, b[i].received) << "broadcast " << i;
        EXPECT_EQ(a[i].rebroadcast, b[i].rebroadcast) << "broadcast " << i;
        EXPECT_EQ(a[i].lastFinal, b[i].lastFinal) << "broadcast " << i;
        EXPECT_EQ(a[i].hopSum, b[i].hopSum) << "broadcast " << i;
      }
      EXPECT_EQ(withGrid.channel().framesTransmitted(),
                without.channel().framesTransmitted());
      EXPECT_EQ(withGrid.channel().framesDelivered(),
                without.channel().framesDelivered());
      EXPECT_EQ(withGrid.channel().framesCorrupted(),
                without.channel().framesCorrupted());
      EXPECT_EQ(withGrid.scheduler().now(), without.scheduler().now());
      const auto gridEnd = withGrid.channel().snapshotPositions();
      const auto scanEnd = without.channel().snapshotPositions();
      ASSERT_EQ(gridEnd.size(), scanEnd.size());
      for (std::size_t i = 0; i < gridEnd.size(); ++i) {
        EXPECT_TRUE(sameBits(gridEnd[i], scanEnd[i])) << "host " << i;
      }
    }
  }
}

TEST(PhyGrid, GridEnabledByDefault) {
  sim::Scheduler scheduler;
  Channel channel(scheduler, PhyParams{});
  EXPECT_TRUE(channel.gridEnabled());
}

/// Nodes attached after a query (fresh attach version) must show up without
/// waiting for time to advance.
TEST(PhyGrid, AttachInvalidatesCachedGrid) {
  sim::Scheduler scheduler;
  Channel channel(scheduler, PhyParams{});
  std::vector<std::unique_ptr<Sink>> sinks;
  auto add = [&](geom::Vec2 pos) {
    const HostId id{static_cast<std::uint32_t>(sinks.size())};
    sinks.push_back(std::make_unique<Sink>());
    channel.attach(id, sinks.back().get(), [pos] { return pos; });
    return id;
  };
  const HostId a = add({0, 0});
  EXPECT_TRUE(channel.nodesInRange(a).empty());  // builds the grid
  const HostId b = add({100, 0});                // same timestamp
  const auto inRange = channel.nodesInRange(a);
  ASSERT_EQ(inRange.size(), 1u);
  EXPECT_EQ(inRange[0], b);
}

/// Why the grid must keep the callback cadence of the exhaustive scan: a
/// RandomRoam position depends on how often it was queried, not just on
/// the time (it integrates position += v*dt once per query).
TEST(PhyGrid, RoamPositionDependsOnQueryCadence) {
  const mobility::MapSpec map = mobility::MapSpec::square(5);
  mobility::RoamParams roam;
  roam.maxSpeedMps = mobility::kmhToMps(50.0);
  int differ = 0;
  constexpr int kSeeds = 100;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    sim::Rng rng(static_cast<std::uint64_t>(seed));
    const geom::Vec2 start = map.uniformPoint(rng);
    mobility::RandomRoam often(map, start, roam, rng.fork(1));
    mobility::RandomRoam once(map, start, roam, rng.fork(1));
    for (int ms = 1; ms < 1000; ++ms) {
      often.positionAt(sim::TimePoint{} + ms * sim::kMillisecond);
    }
    const sim::TimePoint end = sim::TimePoint{} + sim::kSecond;
    differ += often.positionAt(end) != once.positionAt(end) ? 1 : 0;
  }
  EXPECT_EQ(differ, kSeeds);
}

/// What one cadence run saw: node ids in the order their positions were
/// evaluated, and how the channel asked for them.
struct Evaluations {
  std::vector<std::uint32_t> order;
  int batchCalls = 0;
  int singleCalls = 0;
};

/// Scripted motion for the cadence test: node i sits 300 m from node i-1
/// and moves 1 m/s along x, so 1 ms steps refresh and ~31 s escape.
geom::Vec2 cadencePosition(std::uint32_t i, const sim::Scheduler& scheduler) {
  return geom::Vec2{300.0 * i + sim::toSeconds(scheduler.now()), 0.0};
}

/// A batch position source that records every call into `seen`.
class RecordingSource final : public PositionSource {
 public:
  RecordingSource(const sim::Scheduler& scheduler, Evaluations& seen)
      : scheduler_(scheduler), seen_(seen) {}
  geom::Vec2 positionOf(HostId id) override {
    ++seen_.singleCalls;
    return cadencePosition(id.value(), scheduler_);
  }
  void positionsOf(std::span<const HostId> ids,
                   std::span<geom::Vec2> out) override {
    ++seen_.batchCalls;
    for (const HostId id : ids) {
      seen_.order.push_back(id.value());
      out[id.value()] = cadencePosition(id.value(), scheduler_);
    }
  }

 private:
  const sim::Scheduler& scheduler_;
  Evaluations& seen_;
};

/// Positions are not pure functions of time (RandomRoam integrates once per
/// query), so the grid's contract is on when it asks for them: each
/// attached node exactly once per epoch in which a range query runs, in
/// ascending id, whether that epoch refreshes or rebuilds the index; never
/// in an epoch without a query. (An attach inside an already-queried epoch
/// samples the attached nodes once more at the same time, which every
/// mobility model answers unchanged.) Checked for both
/// ways of supplying positions: per-node callbacks, and a PositionSource,
/// which must then see exactly one batch call per queried epoch.
TEST(PhyGrid, EachOnAirNodeIsEvaluatedOncePerQueriedEpoch) {
  constexpr std::uint32_t kNodes = 6;
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batch source" : "per-node callbacks");
    sim::Scheduler scheduler;
    Evaluations seen;
    RecordingSource source(scheduler, seen);
    std::unique_ptr<Channel> owned =
        batched ? std::make_unique<Channel>(scheduler, PhyParams{}, source)
                : std::make_unique<Channel>(scheduler, PhyParams{});
    Channel& channel = *owned;
    Sink sink;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      if (batched) {
        channel.attach(HostId{i}, &sink);
      } else {
        channel.attach(HostId{i}, &sink, [&, i] {
          seen.order.push_back(i);
          return cadencePosition(i, scheduler);
        });
      }
    }
    auto advance = [&](sim::Duration dt) {
      scheduler.schedule(scheduler.now() + dt, [] {});
      scheduler.runAll();
    };
    auto queryEpoch = [&] {
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        channel.nodesInRange(HostId{i});
        channel.inRangeCount(HostId{i});
        channel.reachableCount(HostId{i});
      }
      channel.snapshotPositions();
    };
    obs::Registry registry;
    obs::ScopedRegistry scope(&registry);

    auto expectOnce = [&] {
      std::vector<std::uint32_t> ascending;
      for (std::uint32_t i = 0; i < kNodes; ++i) ascending.push_back(i);
      EXPECT_EQ(seen.order, ascending);
      EXPECT_EQ(seen.batchCalls, batched ? 1 : 0);
      EXPECT_EQ(seen.singleCalls, 0);
      seen = Evaluations{};
    };

    queryEpoch();  // first epoch: full rebuild
    expectOnce();
    advance(sim::kMillisecond);
    queryEpoch();  // refresh
    expectOnce();
    EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 1u);

    advance(sim::kMillisecond);  // an epoch with no query pays nothing
    EXPECT_TRUE(seen.order.empty());
    EXPECT_EQ(seen.batchCalls, 0);
    advance(40 * sim::kSecond);
    queryEpoch();  // every node escaped its anchor: refresh, then rebuild
    expectOnce();
    EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 2u);
    advance(sim::kMillisecond);
    queryEpoch();
    expectOnce();
    EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 2u);
  }
}

/// A scripted model that logs every time it is asked for and declares a
/// speed bound (1 m/s unless given), which its path must keep.
class RecordingModel final : public mobility::MobilityModel {
 public:
  using Path = std::function<geom::Vec2(sim::TimePoint)>;
  explicit RecordingModel(Path path, double maxSpeed = 1.0)
      : path_(std::move(path)), maxSpeed_(maxSpeed) {}
  geom::Vec2 positionAt(sim::TimePoint t) override {
    seen.push_back(t);
    return path_(t);
  }
  geom::Vec2 peekPositionAt(std::span<const sim::TimePoint>,
                            std::span<const double>,
                            sim::TimePoint t) const override {
    return path_(t);
  }
  double maxSpeedMps() const override { return maxSpeed_; }
  geom::Vec2 at(sim::TimePoint t) const { return path_(t); }

  std::vector<sim::TimePoint> seen;  // every query time, in call order

 private:
  Path path_;
  double maxSpeed_;
};

/// A channel over RecordingModels, through the world's ModelPositions.
struct RecordingFixture {
  explicit RecordingFixture(const std::vector<RecordingModel::Path>& paths,
                            double maxSpeed = 1.0) {
    for (const RecordingModel::Path& path : paths) {
      const HostId id{static_cast<std::uint32_t>(models.size())};
      models.push_back(std::make_unique<RecordingModel>(path, maxSpeed));
      positions.add(*models.back());
      channel.attach(id, &sink);
    }
  }
  void advance(sim::Duration dt) {
    scheduler.schedule(scheduler.now() + dt, [] {});
    scheduler.runAll();
  }
  sim::Scheduler scheduler;
  experiment::ModelPositions positions{scheduler};
  Channel channel{scheduler, PhyParams{}, positions};
  std::vector<std::unique_ptr<RecordingModel>> models;
  Sink sink;
};

/// With a speed bound the grid reads lazily, through the world's
/// ModelPositions: at an epoch it reads only the hosts a query looks at,
/// and every other host catches up later. Yet each host sees every queried
/// epoch exactly once, in order, before a read returns its position: after
/// each query its centre has seen all of them, and every host a prefix.
/// The answers match a brute-force scan of the scripted positions.
TEST(PhyGrid, BoundedSourceShowsEachHostEveryQueriedEpochInOrder) {
  // A lattice of 4 columns 300 m apart, moving 1 m/s along x.
  constexpr std::uint32_t kNodes = 12;
  std::vector<RecordingModel::Path> paths;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    paths.push_back([i](sim::TimePoint t) {
      return geom::Vec2{300.0 * (i % 4) + sim::toSeconds(t), 300.0 * (i / 4)};
    });
  }
  RecordingFixture fx(paths);
  Channel& channel = fx.channel;
  const auto& models = fx.models;
  const double r2 = channel.params().radiusMeters *
                    channel.params().radiusMeters;
  std::vector<sim::TimePoint> epochs;  // instants in which a query ran
  auto seenAPrefix = [&](std::uint32_t i) {
    const std::vector<sim::TimePoint>& seen = models[i]->seen;
    return seen.size() <= epochs.size() &&
           std::equal(seen.begin(), seen.end(), epochs.begin());
  };

  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  sim::Rng rng(3);
  int lagging = 0;  // hosts behind the latest epoch, summed over queries
  for (int step = 0; step < 300; ++step) {
    const auto dt =
        rng.uniformInt(0, 19) == 0
            ? 40 * sim::kSecond
            : rng.uniformDuration(sim::kMillisecond, 2 * sim::kSecond);
    fx.advance(dt);
    const sim::TimePoint now = fx.scheduler.now();
    const auto queries = rng.uniformInt(0, 3);  // 0: an epoch with no query
    if (queries > 0) epochs.push_back(now);
    for (int q = 0; q < queries; ++q) {
      const HostId id{
          static_cast<std::uint32_t>(rng.uniformInt(0, kNodes - 1))};
      const geom::Vec2 center = models[id.value()]->at(now);
      std::vector<HostId> expected;
      for (std::uint32_t j = 0; j < kNodes; ++j) {
        if (j != id.value() &&
            geom::distanceSquared(models[j]->at(now), center) <= r2) {
          expected.push_back(HostId{j});
        }
      }
      switch (rng.uniformInt(0, 2)) {
        case 0:
          ASSERT_EQ(channel.nodesInRange(id), expected) << "step " << step;
          break;
        case 1:
          ASSERT_EQ(channel.inRangeCount(id), expected.size())
              << "step " << step;
          break;
        default:
          // The lattice rows are 300 m apart: everyone is connected.
          ASSERT_EQ(channel.reachableCount(id), kNodes - 1)
              << "step " << step;
          break;
      }
      ASSERT_EQ(models[id.value()]->seen, epochs) << "step " << step;
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        ASSERT_TRUE(seenAPrefix(i)) << "step " << step << " host " << i;
        lagging += models[i]->seen.size() < epochs.size() ? 1 : 0;
      }
    }
  }
  // Reading everyone catches everyone up, at the last epoch.
  const sim::TimePoint end = fx.scheduler.now();
  if (epochs.empty() || epochs.back() != end) epochs.push_back(end);
  const std::vector<geom::Vec2> snapshot = channel.snapshotPositions();
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(models[i]->seen, epochs) << "host " << i;
    EXPECT_EQ(snapshot[i], models[i]->at(end)) << "host " << i;
  }
  // The reads were lazy, and the cells were rebuilt only on escapes.
  EXPECT_GT(lagging, 0);
  EXPECT_LT(registry.counter(obs::Counter::kGridRebuilds), epochs.size() / 4);
}

/// Between verifications the whole-population bbox is the one measured at
/// the last verification, padded by how far the speed bound lets a node
/// have moved since. Node 1 starts 0.5 m inside node 0's range and leaves
/// at 1 m/s; a second later the stale bbox alone would still put it in.
TEST(PhyGrid, BboxFastPathAllowsForDriftSinceVerification) {
  const double r = PhyParams{}.radiusMeters;
  RecordingFixture fx({[](sim::TimePoint) { return geom::Vec2{0.0, 0.0}; },
                       [r](sim::TimePoint t) {
                         return geom::Vec2{r - 0.5 + sim::toSeconds(t), 0.0};
                       }});
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  EXPECT_EQ(fx.channel.nodesInRange(HostId{0}), std::vector<HostId>{HostId{1}});
  fx.advance(sim::kSecond);
  EXPECT_TRUE(fx.channel.nodesInRange(HostId{0}).empty());
  EXPECT_EQ(fx.channel.inRangeCount(HostId{0}), 0u);
  EXPECT_EQ(fx.channel.reachableCount(HostId{0}), 0u);
  EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 1u);
}

/// The drift bound starts from the largest anchor distance the last
/// verification measured, not from zero. Node 1 drifts toward node 0 at
/// 0.9 m/s (under its 1 m/s bound) from a cell outside node 0's 3x3
/// neighborhood: the verification at 31 s finds it 27.9 m from its anchor,
/// so the one at 35 s must come, find it past the margin and rebuild,
/// before it enters range at 35.1 s.
TEST(PhyGrid, DriftBoundStartsFromTheVerifiedAnchorDistance) {
  RecordingFixture fx({[](sim::TimePoint) { return geom::Vec2{531.0, 0.0}; },
                       [](sim::TimePoint t) {
                         return geom::Vec2{1062.6 - 0.9 * sim::toSeconds(t),
                                           0.0};
                       },
                       [](sim::TimePoint) { return geom::Vec2{0.0, 0.0}; }});
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  const double r = fx.channel.params().radiusMeters;
  for (const int at : {0, 31, 35, 40}) {
    fx.advance(sim::TimePoint{} + at * sim::kSecond - fx.scheduler.now());
    const bool near = geom::distance(fx.models[1]->at(fx.scheduler.now()),
                                     fx.models[0]->at(fx.scheduler.now())) <= r;
    EXPECT_EQ(fx.channel.nodesInRange(HostId{0}),
              near ? std::vector<HostId>{HostId{1}} : std::vector<HostId>{})
        << "at " << at << " s";
  }
  EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 2u);
}

/// Hosts that cannot move never need verifying, and a host no query looks
/// at is never read, yet its log of epochs to replay stays bounded: once
/// the log is long enough the source replays every host and drops it.
TEST(PhyGrid, EpochLogStaysBoundedWhenNothingMoves) {
  RecordingFixture fx({[](sim::TimePoint) { return geom::Vec2{0.0, 0.0}; },
                       [](sim::TimePoint) { return geom::Vec2{5000.0, 0.0}; }},
                      /*maxSpeed=*/0.0);
  std::vector<sim::TimePoint> epochs;
  std::size_t longest = 0;
  for (int epoch = 0; epoch < 10000; ++epoch) {
    fx.advance(sim::kMillisecond);
    epochs.push_back(fx.scheduler.now());
    EXPECT_TRUE(fx.channel.inRangeCount(HostId{0}) == 0);
    longest = std::max(longest, fx.positions.pending(HostId{1}).size());
  }
  EXPECT_LT(longest, 5000u);
  EXPECT_LT(fx.models[1]->seen.size(), epochs.size());
  fx.channel.snapshotPositions();
  EXPECT_EQ(fx.models[0]->seen, epochs);
  EXPECT_EQ(fx.models[1]->seen, epochs);
}

/// A peek (tracing, fingerprints) replays a host's pending epochs on a copy
/// of its model with the logged steps, as the host's next read will: over
/// logs of 1 to 4,096 epochs every host's peek equals its later real read,
/// bit for bit, and peeking advances nothing.
TEST(PhyGrid, PeekMatchesTheLaterReadBitForBit) {
  for (const std::size_t epochs : {1u, 2u, 97u, 1000u, 4096u}) {
    SCOPED_TRACE(testing::Message() << epochs << " epochs");
    MobileFixture fx(8, 11, 5 + epochs);
    fx.advance(sim::kSecond);
    sim::Rng gaps(epochs);
    sim::TimePoint mark = fx.scheduler.now();
    for (std::size_t k = 0; k < epochs; ++k) {
      mark += gaps.uniformDuration(sim::kMicrosecond, sim::Duration{900});
      fx.positions.markEpoch(mark);
    }
    fx.advance(mark - fx.scheduler.now() + sim::Duration{13});
    const auto bits = [](geom::Vec2 p) {
      return std::pair{std::bit_cast<std::uint64_t>(p.x),
                       std::bit_cast<std::uint64_t>(p.y)};
    };
    for (std::uint32_t i = 0; i < 8; ++i) {
      const HostId id{i};
      ASSERT_EQ(fx.positions.pending(id).size(), epochs);
      const geom::Vec2 peek = fx.positions.peekPositionOf(id);
      EXPECT_EQ(bits(fx.positions.peekPositionOf(id)), bits(peek));
      EXPECT_EQ(bits(fx.positions.positionOf(id)), bits(peek)) << "host " << i;
    }
  }
}

/// ModelPositions logs each marked instant once, later than the last: a
/// repeated or earlier mark is a contract violation, also after a read of
/// every host has dropped the log.
TEST(PhyGridDeath, ModelPositionsRejectsAMarkNotLaterThanTheLast) {
  RecordingFixture fx({[](sim::TimePoint) { return geom::Vec2{0.0, 0.0}; }});
  fx.advance(sim::kSecond);
  const sim::TimePoint now = fx.scheduler.now();
  fx.channel.snapshotPositions();  // marks `now`, reads every host
  EXPECT_TRUE(fx.positions.pending(HostId{0}).empty());
  EXPECT_DEATH(fx.positions.markEpoch(now), "Precondition");
  EXPECT_DEATH(fx.positions.markEpoch(now - sim::kMicrosecond),
               "Precondition");
  fx.positions.markEpoch(now + sim::kMicrosecond);
  EXPECT_EQ(fx.positions.pending(HostId{0}).size(), 1u);
}

/// Two channels over the same scripted positions, one on the grid and one
/// on the exhaustive scan, stepped through epochs that put a drifting node
/// just inside and just past the anchor escape margin and at exactly the
/// radio radius from a query centre. Every query and every delivery must
/// agree, across several forced full rebuilds.
TEST(PhyGridDifferential, AnchoredGridMatchesExhaustiveAtTheSkinEdges) {
  const PhyParams params;
  const double r = params.radiusMeters;
  const double skin = r / 16.0;
  constexpr std::uint32_t kNodes = 6;
  constexpr std::uint32_t kDrifter = 1;
  // Node 0 is the query centre at the origin; 1 drifts; 2..5 stand still
  // and stretch the grid over several cells in both axes.
  std::vector<geom::Vec2> script(kNodes);
  script[0] = {0.0, 0.0};
  script[2] = {-2.0 * r, -1.5 * r};
  script[3] = {3.0 * r, 2.0 * r};
  script[4] = {r + 1.0, r};
  script[5] = {-r, 0.5 * r};

  struct Side {
    explicit Side(bool grid, const PhyParams& params)
        : channel(scheduler, params) {
      channel.setGridEnabled(grid);
    }
    sim::Scheduler scheduler;
    Channel channel;
    std::vector<std::unique_ptr<Sink>> sinks;
  };
  Side grid(true, params);
  Side scan(false, params);
  for (Side* side : {&grid, &scan}) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      side->sinks.push_back(std::make_unique<Sink>());
      side->channel.attach(HostId{i}, side->sinks.back().get(),
                           [&script, i] { return script[i]; });
    }
  }

  // Drifter offsets from its first anchor at x = r + 30 on the centre's
  // axis, then the same around a diagonal cell corner.
  const double a = r + 30.0;
  // Comments name the grid's response; "rebuild" steps move the anchor.
  const std::vector<geom::Vec2> path = {
      {a, 0.0},                           // first build
      {a - 0.98 * skin, 0.0},             // refresh; now in range
      {r, 0.0},                           // refresh; exactly r
      {a - skin, 0.0},                    // past the margin: rebuild
      {r, 0.0},                           // refresh; exactly r
      {std::nextafter(r, 2.0 * r), 0.0},  // refresh; one ulp out of range
      {a - 1.98 * skin, 0.0},             // refresh
      {a, 0.0},                           // past the margin: rebuild
      {0.0, -r},                          // far jump: rebuild; exactly r
      {0.0, -r - 0.98 * skin},            // refresh
      {0.0, -r + 0.5 * skin},             // refresh
      {r * 0.6, r * 0.8},                 // rebuild; exactly r (3-4-5)
      {r * 0.6 + 0.98 * skin, r * 0.8},   // refresh
      {r * 0.6 + 1.5 * skin, r * 0.8},    // past the margin: rebuild
      {r * 0.6, r * 0.8},                 // past the margin: rebuild
  };
  constexpr std::uint64_t kRebuilds = 7;

  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  std::uint32_t step = 0;
  for (const geom::Vec2 p : path) {
    script[kDrifter] = p;
    for (Side* side : {&grid, &scan}) {
      side->scheduler.schedule(side->scheduler.now() + sim::kMillisecond,
                               [] {});
      side->scheduler.runAll();
    }
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      const HostId id{i};
      ASSERT_EQ(grid.channel.nodesInRange(id), scan.channel.nodesInRange(id))
          << "step " << step << " node " << i;
      ASSERT_EQ(grid.channel.inRangeCount(id), scan.channel.inRangeCount(id))
          << "step " << step << " node " << i;
      ASSERT_EQ(grid.channel.reachableCount(id),
                scan.channel.reachableCount(id))
          << "step " << step << " node " << i;
    }
    // Each side transmits from the centre and from the drifter.
    for (const std::uint32_t src : {0u, kDrifter}) {
      for (Side* side : {&grid, &scan}) {
        side->channel.transmit(
            HostId{src},
            net::makeDataPacket({HostId{src}, net::BroadcastSeq{step}},
                                HostId{src}),
            280);
        side->scheduler.runAll();
      }
    }
    ++step;
  }
  // The exhaustive side never builds; the grid side rebuilt at the first
  // step and at every escape along the path, and refreshed otherwise.
  EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), kRebuilds);
  EXPECT_EQ(grid.channel.framesDelivered(), scan.channel.framesDelivered());
  EXPECT_EQ(grid.channel.framesCorrupted(), scan.channel.framesCorrupted());
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ(grid.sinks[i]->receptions, scan.sinks[i]->receptions)
        << "node " << i;
  }
}

/// Channel::reachableCount (the RE denominator) against the reference BFS
/// in stats::reachableCount over the nodes' snapshot, on the grid and on
/// the exhaustive scan.
TEST(PhyGridDifferential, ReachableCountMatchesSnapshotBfs) {
  for (const int mapUnits : {1, 5, 11}) {
    for (const int hosts : {100, 400}) {
      MobileFixture fx(hosts, mapUnits, 40 + mapUnits);
      const double radius = fx.channel->params().radiusMeters;
      for (int epoch = 0; epoch < 4; ++epoch) {
        fx.advance(700 * sim::kMillisecond);
        fx.channel->setGridEnabled(true);
        const auto snapshot = fx.channel->snapshotPositions();
        for (int i = 0; i < hosts; i += 7) {
          const HostId id{static_cast<std::uint32_t>(i)};
          const auto expected = static_cast<std::size_t>(stats::reachableCount(
              snapshot, radius, static_cast<std::size_t>(i)));
          fx.channel->setGridEnabled(true);
          ASSERT_EQ(fx.channel->reachableCount(id), expected)
              << "map " << mapUnits << " hosts " << hosts << " epoch "
              << epoch << " node " << i;
          fx.channel->setGridEnabled(false);
          ASSERT_EQ(fx.channel->reachableCount(id), expected)
              << "map " << mapUnits << " hosts " << hosts << " epoch "
              << epoch << " node " << i << " (exhaustive)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace manet::phy
