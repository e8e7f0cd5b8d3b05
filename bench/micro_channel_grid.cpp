// google-benchmark comparison of the channel's spatial-grid range resolution
// against the exhaustive scan (DESIGN.md §7.1). Not a paper figure — the
// regression guard for the grid path, run at tiny scale by the `perf_smoke`
// ctest label.
//
// The workload mirrors what one simulation epoch pays: mobile hosts whose
// positions come from the same ModelPositions source the real World wires
// up, time advancing between iterations (so every epoch pays its mark, the
// reads of the hosts the queries look at, each replaying the epochs it
// missed, and now and then a verification of every host or a full rebuild),
// and neighbor resolution
// for every host — the per-receiver work transmit() does plus the oracle
// neighborhood queries the adaptive schemes issue at frame-end timestamps.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "experiment/model_positions.hpp"
#include "experiment/runner.hpp"
#include "mobility/map.hpp"
#include "mobility/random_roam.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

using namespace manet;

namespace {

class NullListener : public phy::Channel::Listener {
 public:
  void onFrameReceived(const phy::Frame&, phy::DropReason) override {}
};

/// A channel populated like a World: one RandomRoam model per host, read
/// through a ModelPositions source at the scheduler's current time.
struct MobileChannel {
  MobileChannel(int hosts, int mapUnits, bool grid) {
    const mobility::MapSpec map = mobility::MapSpec::square(mapUnits);
    sim::Rng master(7);
    phy::PhyParams params;
    channel = std::make_unique<phy::Channel>(scheduler, params, positions);
    channel->setGridEnabled(grid);
    for (int i = 0; i < hosts; ++i) {
      sim::Rng rng = master.fork(0xA000 + static_cast<std::uint64_t>(i));
      mobility::RoamParams roam;
      roam.maxSpeedMps = mobility::kmhToMps(10.0 * mapUnits);
      models.push_back(std::make_unique<mobility::RandomRoam>(
          map, map.uniformPoint(rng), roam, rng.fork(0xA0)));
      positions.add(*models.back());
      channel->attach(net::HostId{static_cast<std::uint32_t>(i)}, &listener);
    }
  }

  /// Moves simulation time forward so the next query sees a fresh epoch.
  void advance(sim::Duration dt) {
    scheduler.schedule(scheduler.now() + dt, [] {});
    scheduler.runAll();
  }

  sim::Scheduler scheduler;
  NullListener listener;
  experiment::ModelPositions positions{scheduler};
  std::unique_ptr<phy::Channel> channel;
  std::vector<std::unique_ptr<mobility::MobilityModel>> models;
};

/// Neighbor resolution for every host at one epoch: the inner loop of
/// transmit() and of the oracle neighborhood queries.
void BM_NeighborResolution(benchmark::State& state, bool grid) {
  const int hosts = static_cast<int>(state.range(0));
  const int mapUnits = static_cast<int>(state.range(1));
  MobileChannel mc(hosts, mapUnits, grid);
  std::vector<net::HostId> receivers;  // reused like transmit()'s scratch
  for (auto _ : state) {
    // 1 ms epochs: the spacing of back-to-back frames during a storm, so
    // per-epoch costs (mobility integration, grid upkeep) weigh as they
    // do in a real run.
    mc.advance(1 * sim::kMillisecond);
    std::size_t neighbors = 0;
    for (int i = 0; i < hosts; ++i) {
      mc.channel->nodesInRange(net::HostId{static_cast<std::uint32_t>(i)}, receivers);
      neighbors += receivers.size();
    }
    benchmark::DoNotOptimize(neighbors);
  }
  state.SetItemsProcessed(state.iterations() * hosts);
}
void BM_NeighborResolutionGrid(benchmark::State& state) {
  BM_NeighborResolution(state, true);
}
void BM_NeighborResolutionExhaustive(benchmark::State& state) {
  BM_NeighborResolution(state, false);
}
// The acceptance case: 100 hosts on the 1x1 map (everyone in range of
// everyone), plus the mid-density 5x5 map where cell culling also kicks in.
BENCHMARK(BM_NeighborResolutionGrid)->Args({100, 1})->Args({100, 5})
    ->Args({400, 5});
BENCHMARK(BM_NeighborResolutionExhaustive)->Args({100, 1})->Args({100, 5})
    ->Args({400, 5});

/// The oracle neighbor-count query `n` that the adaptive schemes (AC/AL/NC
/// tuning) issue on every rebroadcast decision — many per frame-end epoch.
void BM_OracleNeighborCount(benchmark::State& state, bool grid) {
  const int hosts = static_cast<int>(state.range(0));
  const int mapUnits = static_cast<int>(state.range(1));
  MobileChannel mc(hosts, mapUnits, grid);
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    std::size_t total = 0;
    for (int i = 0; i < hosts; ++i) {
      total += mc.channel->inRangeCount(net::HostId{static_cast<std::uint32_t>(i)});
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * hosts);
}
void BM_OracleNeighborCountGrid(benchmark::State& state) {
  BM_OracleNeighborCount(state, true);
}
void BM_OracleNeighborCountExhaustive(benchmark::State& state) {
  BM_OracleNeighborCount(state, false);
}
BENCHMARK(BM_OracleNeighborCountGrid)->Args({100, 1})->Args({100, 5});
BENCHMARK(BM_OracleNeighborCountExhaustive)->Args({100, 1})->Args({100, 5});

/// Floor probe: one epoch advance + a single query. Grid-on pays the epoch
/// mark, the centre's read and the reads its anchors cannot settle, each
/// host replaying the epochs it missed (and, about once a simulated second,
/// a verification of every host or a full rebuild); the difference to the
/// 100-query benchmarks above is the pure per-query cost.
void BM_EpochFloor(benchmark::State& state, bool grid) {
  MobileChannel mc(100, 1, grid);
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    benchmark::DoNotOptimize(mc.channel->inRangeCount(net::HostId{0}));
  }
}
void BM_EpochFloorGrid(benchmark::State& state) { BM_EpochFloor(state, true); }
void BM_EpochFloorExhaustive(benchmark::State& state) {
  BM_EpochFloor(state, false);
}
BENCHMARK(BM_EpochFloorGrid);
BENCHMARK(BM_EpochFloorExhaustive);

/// Full transmit + event-drain cycles (receiver resolution, busy/idle
/// bookkeeping, reception completion) from a rotating source.
void BM_TransmitDrain(benchmark::State& state, bool grid) {
  const int hosts = static_cast<int>(state.range(0));
  const int mapUnits = static_cast<int>(state.range(1));
  MobileChannel mc(hosts, mapUnits, grid);
  int src = 0;
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    const net::HostId id{static_cast<std::uint32_t>(src)};
    mc.channel->transmit(id, net::makeDataPacket({id, net::BroadcastSeq{0}}, id), 280);
    mc.scheduler.runAll();
    src = (src + 1) % hosts;
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_TransmitDrainGrid(benchmark::State& state) {
  BM_TransmitDrain(state, true);
}
void BM_TransmitDrainExhaustive(benchmark::State& state) {
  BM_TransmitDrain(state, false);
}
BENCHMARK(BM_TransmitDrainGrid)->Args({100, 1})->Args({100, 5});
BENCHMARK(BM_TransmitDrainExhaustive)->Args({100, 1})->Args({100, 5});

/// The storm's collision bookkeeping: k frames from distinct sources start
/// in the same instant, inside one carrier-sense window, on a 1x1 map of
/// 100 hosts, so every reception overlaps k - 1 others (and each source
/// loses the others' frames to half-duplex) before all of them drain.
/// BM_TransmitDrain ends each frame before the next starts, so it never
/// reaches this path.
void BM_OverlappingFramesDrain(benchmark::State& state) {
  const int hosts = 100;
  const int frames = static_cast<int>(state.range(0));
  MobileChannel mc(hosts, 1, true);
  int src = 0;
  for (auto _ : state) {
    mc.advance(1 * sim::kMillisecond);
    for (int f = 0; f < frames; ++f) {
      const net::HostId id{static_cast<std::uint32_t>(src)};
      mc.channel->transmit(
          id, net::makeDataPacket({id, net::BroadcastSeq{0}}, id), 280);
      src = (src + 1) % hosts;
    }
    mc.scheduler.runAll();
  }
  state.SetItemsProcessed(state.iterations() * frames);
}
BENCHMARK(BM_OverlappingFramesDrain)->Arg(2)->Arg(8)->Arg(32);

/// End-to-end scenario throughput with the grid on/off; the per-result
/// frames-per-wall-second rate is what BENCH-style outputs report.
void BM_ScenarioThroughput(benchmark::State& state, bool grid) {
  double framesPerSec = 0.0;
  for (auto _ : state) {
    experiment::ScenarioConfig config;
    config.mapUnits = static_cast<int>(state.range(0));
    config.numHosts = 100;
    config.numBroadcasts = 5;
    config.scheme = experiment::SchemeSpec::adaptiveCounter();
    config.channelGrid = grid;
    config.seed = 3;
    const experiment::RunResult r = experiment::runScenario(config);
    framesPerSec = r.framesPerWallSecond();
    benchmark::DoNotOptimize(r);
  }
  state.counters["frames/s"] = framesPerSec;
  state.SetItemsProcessed(state.iterations() * 5);
}
void BM_ScenarioThroughputGrid(benchmark::State& state) {
  BM_ScenarioThroughput(state, true);
}
void BM_ScenarioThroughputExhaustive(benchmark::State& state) {
  BM_ScenarioThroughput(state, false);
}
BENCHMARK(BM_ScenarioThroughputGrid)
    ->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScenarioThroughputExhaustive)
    ->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
