// google-benchmark microbenches for the simulator's hot primitives. Not a
// paper figure — a performance-regression guard for the engine that every
// figure bench depends on.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "experiment/runner.hpp"
#include "geom/circle.hpp"
#include "geom/coverage.hpp"
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

void BM_UncoveredFraction(benchmark::State& state) {
  sim::Rng rng(2);
  const auto covered = heardSenders(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geom::uncoveredFraction({0, 0}, covered, 500.0, rng, 512));
  }
}
BENCHMARK(BM_UncoveredFraction)->Arg(1)->Arg(4)->Arg(12);

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
    ->ArgsProduct({{1, 4, 12}, {1871, 134}});

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
BENCHMARK(BM_ConnectivityBfs)->Arg(100)->Arg(400);

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
