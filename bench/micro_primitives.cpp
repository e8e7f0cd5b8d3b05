// google-benchmark microbenches for the simulator's hot primitives. Not a
// paper figure — a performance-regression guard for the engine that every
// figure bench depends on.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "experiment/runner.hpp"
#include "geom/circle.hpp"
#include "geom/coverage.hpp"
#include "mobility/random_roam.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/connectivity.hpp"

using namespace manet;

namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s;
    long sink = 0;
    for (int i = 0; i < batch; ++i) {
      s.schedule(sim::TimePoint{i % 977}, [&sink] { ++sink; });
    }
    s.runAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(16384);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // Half the events are cancelled before they fire (the common case for
  // inhibited rebroadcasts).
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s;
    std::vector<sim::Scheduler::Handle> handles;
    handles.reserve(static_cast<std::size_t>(batch));
    long sink = 0;
    for (int i = 0; i < batch; ++i) {
      handles.push_back(s.schedule(sim::TimePoint{i}, [&sink] { ++sink; }));
    }
    for (int i = 0; i < batch; i += 2) {
      handles[static_cast<std::size_t>(i)].cancel();
    }
    s.runAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(8192);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

/// `hosts` roaming hosts as on the paper's 11x11 map (110 km/h), and a
/// clock that hands out the next `epochsPerCall` query instants, 1 us to
/// 5 ms apart, with the steps between them as ModelPositions logs them: the
/// shape of one grid verification on crowd_2000 (which averages about 300
/// epochs per catch-up).
struct RoamFixture {
  RoamFixture(int hosts, int epochsPerCall) : epochsPerCall(epochsPerCall) {
    const mobility::MapSpec map = mobility::MapSpec::square(11);
    mobility::RoamParams params;
    params.maxSpeedMps = mobility::kmhToMps(110.0);
    sim::Rng rng(7);
    for (int i = 0; i < hosts; ++i) {
      models.push_back(std::make_unique<mobility::RandomRoam>(
          map, map.uniformPoint(rng), params, rng.fork(i)));
    }
  }
  const std::vector<sim::TimePoint>& nextEpochs() {
    epochs.clear();
    steps.clear();
    for (int k = 0; k < epochsPerCall; ++k) {
      const sim::Duration dt =
          clock.uniformDuration(sim::kMicrosecond, 5 * sim::kMillisecond);
      now += dt;
      steps.push_back(sim::toSeconds(dt));
      epochs.push_back(now);
    }
    return epochs;
  }
  int epochsPerCall;
  std::vector<std::unique_ptr<mobility::MobilityModel>> models;
  sim::Rng clock{11};
  sim::TimePoint now = sim::kTimeZero;
  std::vector<sim::TimePoint> epochs;
  std::vector<double> steps;
};

/// The eager refresh: every host queried once per epoch, epoch by epoch.
void BM_RoamPositionAtPerEpoch(benchmark::State& state) {
  RoamFixture fx(static_cast<int>(state.range(0)), 64);
  for (auto _ : state) {
    for (const sim::TimePoint t : fx.nextEpochs()) {
      for (const auto& model : fx.models) {
        benchmark::DoNotOptimize(model->positionAt(t));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * fx.epochsPerCall *
                          state.range(0));
}
BENCHMARK(BM_RoamPositionAtPerEpoch)->Arg(100)->Arg(2000);

/// The lazy grid's catch-up: each of range(0) hosts replays the same
/// range(1) epochs in one call. Items are replayed steps, so the benches
/// compare per host-epoch.
void BM_RoamReplay(benchmark::State& state) {
  RoamFixture fx(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const std::vector<sim::TimePoint>& epochs = fx.nextEpochs();
    for (const auto& model : fx.models) {
      benchmark::DoNotOptimize(model->replay(epochs));
    }
  }
  state.SetItemsProcessed(state.iterations() * fx.epochsPerCall *
                          state.range(0));
}
BENCHMARK(BM_RoamReplay)->ArgsProduct({{100, 2000}, {64, 512}});

/// BM_RoamReplay through the overload World uses: ModelPositions passes
/// the steps between epochs, computed once for every host.
void BM_RoamReplayWithSteps(benchmark::State& state) {
  RoamFixture fx(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const std::vector<sim::TimePoint>& epochs = fx.nextEpochs();
    for (const auto& model : fx.models) {
      benchmark::DoNotOptimize(model->replay(epochs, fx.steps));
    }
  }
  state.SetItemsProcessed(state.iterations() * fx.epochsPerCall *
                          state.range(0));
}
BENCHMARK(BM_RoamReplayWithSteps)->ArgsProduct({{100, 2000}, {64, 512}});

void BM_IntersectionArea(benchmark::State& state) {
  double d = 0.0;
  for (auto _ : state) {
    d += 0.37;
    if (d > 1000.0) d = 0.0;
    benchmark::DoNotOptimize(geom::intersectionArea(500.0, d));
  }
}
BENCHMARK(BM_IntersectionArea);

/// `senders` heard-sender positions: uniform in the receiver's 500 m disk,
/// the only place a heard sender can be.
std::vector<geom::Vec2> heardSenders(int senders, sim::Rng& rng) {
  std::vector<geom::Vec2> covered;
  for (int i = 0; i < senders; ++i) {
    const double d = 500.0 * std::sqrt(rng.uniform());
    covered.push_back(d * geom::unitVector(rng.uniform(0.0, 2.0 * geom::kPi)));
  }
  return covered;
}

/// k heard senders; k = 8 is the dense 1x1 map's regime.
void BM_UncoveredFraction(benchmark::State& state) {
  sim::Rng rng(2);
  const auto covered = heardSenders(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geom::uncoveredFraction({0, 0}, covered, 500.0, rng, 512));
  }
}
BENCHMARK(BM_UncoveredFraction)->Arg(1)->Arg(4)->Arg(8)->Arg(12);

/// The location schemes' decision at the fixed thresholds A = 0.1871 and
/// A = 0.0134 (second argument, in units of 1e-4).
void BM_UncoveredFractionAtLeast(benchmark::State& state) {
  sim::Rng rng(2);
  const auto covered = heardSenders(static_cast<int>(state.range(0)), rng);
  const double threshold = static_cast<double>(state.range(1)) * 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::uncoveredFractionAtLeast(
        {0, 0}, covered, 500.0, threshold, rng, 512));
  }
}
BENCHMARK(BM_UncoveredFractionAtLeast)
    ->ArgsProduct({{1, 4, 8, 12}, {1871, 134}});

void BM_ConnectivityBfs(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  sim::Rng rng(3);
  std::vector<geom::Vec2> pos;
  for (int i = 0; i < hosts; ++i) {
    pos.push_back({rng.uniform(0.0, 2500.0), rng.uniform(0.0, 2500.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::reachableCount(pos, 500.0, 0));
  }
}
BENCHMARK(BM_ConnectivityBfs)->Arg(100)->Arg(400)->Arg(2000);

class NullListener : public phy::Channel::Listener {
 public:
  void onFrameReceived(const phy::Frame&, phy::DropReason) override {}
};

/// The simulator's RE denominator: Channel::reachableCount, the same BFS on
/// the channel's grid, over the hosts BM_ConnectivityBfs places. Time does
/// not advance, so this is the BFS alone, without the per-epoch refresh.
void BM_ChannelReachable(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  sim::Rng rng(3);
  sim::Scheduler scheduler;
  phy::Channel channel(scheduler, phy::PhyParams{});
  NullListener listener;
  for (int i = 0; i < hosts; ++i) {
    const geom::Vec2 p{rng.uniform(0.0, 2500.0), rng.uniform(0.0, 2500.0)};
    channel.attach(net::HostId{static_cast<std::uint32_t>(i)}, &listener,
                   [p] { return p; });
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.reachableCount(net::HostId{0}));
  }
}
BENCHMARK(BM_ChannelReachable)->Arg(100)->Arg(400)->Arg(2000);

void BM_FullScenario(benchmark::State& state) {
  // End-to-end cost of one broadcast on a mid-density map (the unit every
  // figure bench pays thousands of times).
  for (auto _ : state) {
    experiment::ScenarioConfig config;
    config.mapUnits = 5;
    config.numHosts = 100;
    config.numBroadcasts = 5;
    config.scheme = experiment::SchemeSpec::adaptiveCounter();
    config.seed = 3;
    benchmark::DoNotOptimize(experiment::runScenario(config));
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_FullScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
