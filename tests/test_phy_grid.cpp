// Differential tests for the channel's anchored spatial grid index: under
// mobility, across densities, the grid-backed range queries, reachability
// counts and transmit delivery sets must match the exhaustive-scan fallback
// exactly (DESIGN.md §7.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "experiment/model_positions.hpp"
#include "experiment/runner.hpp"
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

/// Whole-simulation differential: a full scenario run must be bit-identical
/// with the grid on and off (same RNG draws, same event order, same metrics).
TEST(PhyGridDifferential, FullScenarioIsIdenticalWithGridOnAndOff) {
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 60;
  config.numBroadcasts = 8;
  config.scheme = experiment::SchemeSpec::adaptiveCounter();
  config.seed = 5;

  config.channelGrid = true;
  const experiment::RunResult withGrid = experiment::runScenario(config);
  config.channelGrid = false;
  const experiment::RunResult without = experiment::runScenario(config);

  EXPECT_EQ(withGrid.re(), without.re());
  EXPECT_EQ(withGrid.srb(), without.srb());
  EXPECT_EQ(withGrid.latency(), without.latency());
  EXPECT_EQ(withGrid.framesTransmitted, without.framesTransmitted);
  EXPECT_EQ(withGrid.framesDelivered, without.framesDelivered);
  EXPECT_EQ(withGrid.framesCorrupted, without.framesCorrupted);
  EXPECT_EQ(withGrid.summary.totalReceived, without.summary.totalReceived);
  EXPECT_EQ(withGrid.summary.totalRebroadcast,
            without.summary.totalRebroadcast);
  EXPECT_EQ(withGrid.summary.totalReachable, without.summary.totalReachable);
  EXPECT_EQ(withGrid.simulatedSeconds, without.simulatedSeconds);
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
/// query), so the grid's contract is on when it asks for them: each on-air
/// node exactly once per epoch in which a range query runs, in ascending
/// id, whether that epoch refreshes or rebuilds the index; never for a down
/// node, never in an epoch without a query. (An attach or churn inside an
/// already-queried epoch samples the on-air nodes once more at the same
/// time, which every mobility model answers unchanged.) Checked for both
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
        if (!channel.nodeUp(HostId{i})) continue;
        channel.nodesInRange(HostId{i});
        channel.inRangeCount(HostId{i});
        channel.reachableCount(HostId{i});
      }
      channel.snapshotPositions();
    };
    obs::Registry registry;
    obs::ScopedRegistry scope(&registry);

    auto expectOnce = [&](const std::vector<bool>& up) {
      std::vector<std::uint32_t> ascending;
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        if (up[i]) ascending.push_back(i);
      }
      EXPECT_EQ(seen.order, ascending);
      EXPECT_EQ(seen.batchCalls, batched ? 1 : 0);
      EXPECT_EQ(seen.singleCalls, 0);
      seen = Evaluations{};
    };
    const std::vector<bool> allUp(kNodes, true);

    queryEpoch();  // first epoch: full rebuild
    expectOnce(allUp);
    advance(sim::kMillisecond);
    queryEpoch();  // refresh
    expectOnce(allUp);
    EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 1u);

    advance(sim::kMillisecond);  // an epoch with no query pays nothing
    EXPECT_TRUE(seen.order.empty());
    EXPECT_EQ(seen.batchCalls, 0);
    advance(40 * sim::kSecond);
    queryEpoch();  // every node escaped its anchor: refresh, then rebuild
    expectOnce(allUp);
    EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 2u);

    advance(sim::kMillisecond);
    channel.setNodeUp(HostId{2}, false);  // churn: rebuild without node 2
    std::vector<bool> up = allUp;
    up[2] = false;
    queryEpoch();
    expectOnce(up);
    EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 3u);
    advance(sim::kMillisecond);
    queryEpoch();
    expectOnce(up);
    EXPECT_EQ(registry.counter(obs::Counter::kGridRebuilds), 3u);
  }
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
/// in stats::reachableCount over the on-air nodes' snapshot, on the grid and
/// on the exhaustive scan, with and without churned-down hosts.
TEST(PhyGridDifferential, ReachableCountMatchesSnapshotBfs) {
  for (const int mapUnits : {1, 5, 11}) {
    for (const int hosts : {100, 400}) {
      MobileFixture fx(hosts, mapUnits, 40 + mapUnits);
      const double radius = fx.channel->params().radiusMeters;
      for (int epoch = 0; epoch < 4; ++epoch) {
        fx.advance(700 * sim::kMillisecond);
        if (epoch == 2) {
          // Crash every fifth host: they neither count nor relay.
          for (int i = 3; i < hosts; i += 5) {
            fx.channel->setNodeUp(HostId{static_cast<std::uint32_t>(i)},
                                  false);
          }
        }
        fx.channel->setGridEnabled(true);
        const auto snapshot = fx.channel->snapshotPositions();
        std::vector<geom::Vec2> onAir;
        std::vector<int> index(static_cast<std::size_t>(hosts), -1);
        for (int i = 0; i < hosts; ++i) {
          if (!fx.channel->nodeUp(HostId{static_cast<std::uint32_t>(i)})) {
            continue;
          }
          index[static_cast<std::size_t>(i)] = static_cast<int>(onAir.size());
          onAir.push_back(snapshot[static_cast<std::size_t>(i)]);
        }
        for (int i = 0; i < hosts; i += 7) {
          const HostId id{static_cast<std::uint32_t>(i)};
          if (!fx.channel->nodeUp(id)) continue;
          const auto expected = static_cast<std::size_t>(stats::reachableCount(
              onAir, radius,
              static_cast<std::size_t>(index[static_cast<std::size_t>(i)])));
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
