// Determinism and pool-machinery tests for the parallel experiment runner:
// runCells must produce byte-identical output for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/parallel.hpp"
#include "experiment/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace manet::experiment {
namespace {

TEST(WorkerPool, RunsEveryJobExactlyOnce) {
  std::atomic<int> counter{0};
  {
    WorkerPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { ++counter; });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(WorkerPool, DestructorDrainsOutstandingJobs) {
  std::atomic<int> counter{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // no wait(): the destructor must still finish everything
  EXPECT_EQ(counter.load(), 50);
}

TEST(WorkerPool, WaitRethrowsJobException) {
  WorkerPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ParallelFor, CoversAllIndicesAcrossThreadCounts) {
  for (const int threads : {1, 2, 4}) {
    std::vector<int> hits(257, 0);
    parallelFor(hits.size(),
                [&hits](std::size_t i) { ++hits[i]; }, threads);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroJobsIsANoop) {
  parallelFor(0, [](std::size_t) { FAIL(); }, 4);
}

// runCells fans its (cell, repetition) jobs out through parallelFor, so a
// job that throws must surface at the caller, serially and pooled, whether
// it is the first job or one behind jobs that already finished.
TEST(ParallelFor, PropagatesAJobException) {
  for (const int threads : {1, 4}) {
    for (const std::size_t failing : {0u, 2u, 7u}) {
      EXPECT_THROW(parallelFor(
                       8,
                       [failing](std::size_t i) {
                         if (i == failing) {
                           throw std::runtime_error("job failed");
                         }
                       },
                       threads),
                   std::runtime_error)
          << "job " << failing << " threads " << threads;
    }
  }
}

ScenarioConfig tinyBase() {
  ScenarioConfig c;
  c.numHosts = 20;
  c.numBroadcasts = 2;
  c.seed = 9;
  return c;
}

/// Scheme x map x speed, the inner axis varying fastest.
std::vector<ScenarioConfig> threeAxisCells() {
  std::vector<ScenarioConfig> configs;
  for (const SchemeSpec& scheme :
       {SchemeSpec::flooding(), SchemeSpec::counter(3)}) {
    for (int units : {1, 3}) {
      for (double speedKmh : {10.0, 30.0}) {
        ScenarioConfig c = tinyBase();
        c.scheme = scheme;
        c.mapUnits = units;
        c.maxSpeedKmh = speedKmh;
        configs.push_back(c);
      }
    }
  }
  return configs;
}

/// The tentpole guarantee: a parallel sweep of cells is identical to the
/// serial run — same cells in the same order, same numbers.
TEST(ParallelSweep, ThreeAxisSweepIsIdenticalToSerial) {
  const auto configs = threeAxisCells();
  const auto serial = runCells(configs, /*repetitions=*/2, /*threads=*/1);
  const auto parallel = runCells(configs, /*repetitions=*/2, /*threads=*/4);

  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].schemeName, configs[i].scheme.name());
    EXPECT_EQ(serial[i].schemeName, parallel[i].schemeName);
    EXPECT_EQ(serial[i].re(), parallel[i].re());
    EXPECT_EQ(serial[i].srb(), parallel[i].srb());
    EXPECT_EQ(serial[i].latency(), parallel[i].latency());
    EXPECT_EQ(serial[i].framesTransmitted, parallel[i].framesTransmitted);
    EXPECT_EQ(serial[i].summary.totalReceived,
              parallel[i].summary.totalReceived);
  }
}

TEST(ParallelSweep, AveragedRunsMatchSerialAcrossThreadCounts) {
  ScenarioConfig config = tinyBase();
  config.numHosts = 25;
  const RunResult serial = runScenarioAveraged(config, 3, /*threads=*/1);
  const RunResult parallel = runScenarioAveraged(config, 3, /*threads=*/3);
  EXPECT_EQ(serial.re(), parallel.re());
  EXPECT_EQ(serial.srb(), parallel.srb());
  EXPECT_EQ(serial.latency(), parallel.latency());
  EXPECT_EQ(serial.framesTransmitted, parallel.framesTransmitted);
  EXPECT_EQ(serial.summary.broadcasts, parallel.summary.broadcasts);
}

/// Averaged results carry the summed raw r/t/e counts of their repetitions
/// alongside the mean-of-means the figures report.
TEST(PooledCounts, AveragedResultExposesBothAveragings) {
  ScenarioConfig config = tinyBase();
  const RunResult run0 = runScenario(config);
  ScenarioConfig c1 = config;
  c1.seed = config.seed + 1;
  const RunResult run1 = runScenario(c1);
  const RunResult pooled = runScenarioAveraged(config, 2);

  EXPECT_EQ(pooled.summary.totalReceived,
            run0.summary.totalReceived + run1.summary.totalReceived);
  EXPECT_EQ(pooled.summary.totalRebroadcast,
            run0.summary.totalRebroadcast + run1.summary.totalRebroadcast);
  EXPECT_EQ(pooled.summary.totalReachable,
            run0.summary.totalReachable + run1.summary.totalReachable);
  EXPECT_DOUBLE_EQ(pooled.re(), (run0.re() + run1.re()) / 2.0);
}

// --- runCells: the one (cell, repetition) fan-out -----------------------

class ForcedCollection {
 public:
  ForcedCollection() { obs::forceCollection(true); }
  ~ForcedCollection() { obs::forceCollection(false); }
};

/// Everything deterministic a figure bench prints or reports about a cell,
/// merged metric registry included (wall-clock fields excluded).
std::string fingerprint(const RunResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.schemeName << ' ' << r.seed << ' ' << r.re() << ' ' << r.srb()
      << ' ' << r.latency() << ' ' << r.hellosPerHostPerSecond << ' '
      << r.summary.broadcasts << ' ' << r.summary.totalReceived << ' '
      << r.summary.totalRebroadcast << ' ' << r.summary.totalReachable << ' '
      << r.framesTransmitted << ' ' << r.framesDelivered << ' '
      << r.framesCorrupted << ' ' << r.simulatedSeconds << '\n';
  if (r.metrics != nullptr) {
    out << obs::metricsJson(*r.metrics, /*includeTiming=*/false);
  }
  return out.str();
}

std::vector<ScenarioConfig> mixedCells() {
  std::vector<ScenarioConfig> configs;
  for (const SchemeSpec& scheme :
       {SchemeSpec::flooding(), SchemeSpec::neighborCoverage()}) {
    for (int units : {1, 3}) {
      ScenarioConfig c = tinyBase();
      c.mapUnits = units;
      c.scheme = scheme;
      if (scheme.needsTwoHopInfo()) {
        c.neighborSource = NeighborSource::kHello;
        c.hello.dynamic = true;
      }
      configs.push_back(c);
    }
  }
  return configs;
}

TEST(RunCells, ByteIdenticalAcrossThreadCounts) {
  ForcedCollection forced;
  const auto configs = mixedCells();
  for (const int reps : {1, 2}) {
    const auto serial = runCells(configs, reps, /*threads=*/1);
    const auto parallel = runCells(configs, reps, /*threads=*/4);
    ASSERT_EQ(serial.size(), configs.size());
    ASSERT_EQ(parallel.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      ASSERT_NE(serial[i].metrics, nullptr);
      EXPECT_EQ(fingerprint(serial[i]), fingerprint(parallel[i]))
          << "cell " << i << ", " << reps << " rep(s)";
    }
  }
}

TEST(RunCells, MatchesPerCellAveragedRuns) {
  ForcedCollection forced;
  const auto configs = mixedCells();
  const auto cells = runCells(configs, /*repetitions=*/2, /*threads=*/4);
  ASSERT_EQ(cells.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(fingerprint(cells[i]),
              fingerprint(runScenarioAveraged(configs[i], 2, /*threads=*/1)))
        << "cell " << i;
  }
}

TEST(RunCells, KeepsCellOrderWhenCostsAreUneven) {
  // A dense storm cell costs orders of magnitude more than a 3-host one, so
  // with four workers the cheap cells finish first; the output must still
  // be in input order.
  std::vector<ScenarioConfig> configs;
  for (std::uint64_t i = 0; i < 9; ++i) {
    ScenarioConfig c = tinyBase();
    c.seed = 100 + i;
    const bool heavy = i % 4 == 0;
    c.numHosts = heavy ? 100 : 3;
    c.numBroadcasts = heavy ? 10 : 1;
    c.mapUnits = heavy ? 1 : 5;
    configs.push_back(c);
  }
  const auto cells = runCells(configs, /*repetitions=*/1, /*threads=*/4);
  ASSERT_EQ(cells.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(cells[i].seed, configs[i].seed);
    EXPECT_EQ(fingerprint(cells[i]), fingerprint(runScenario(configs[i])))
        << "cell " << i;
  }
}

// --- runCells as the sweep driver ---------------------------------------
// A figure bench's sweep is its list of cells; runCells returns one result
// per cell, in cell order.

ScenarioConfig sweepBase() {
  ScenarioConfig c;
  c.numHosts = 25;
  c.numBroadcasts = 3;
  c.seed = 4;
  return c;
}

TEST(Sweep, ResultsArePopulated) {
  const ScenarioConfig c = sweepBase();
  const auto cells = runCells({c}, /*repetitions=*/1, /*threads=*/1);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].summary.broadcasts, 3u);
  EXPECT_EQ(cells[0].offeredBroadcasts, 3u);
  EXPECT_GE(cells[0].re(), 0.0);
  EXPECT_GT(cells[0].framesTransmitted, 0u);
}

TEST(Sweep, SpeedAndSeedAxes) {
  std::vector<ScenarioConfig> configs;
  for (double speedKmh : {10.0, 50.0}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      ScenarioConfig c = sweepBase();
      c.maxSpeedKmh = speedKmh;
      c.seed = seed;
      configs.push_back(c);
    }
  }
  const auto cells = runCells(configs, /*repetitions=*/1, /*threads=*/2);
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].seed, configs[i].seed) << "cell " << i;
  }
}

TEST(Sweep, SeedAxisChangesOutcomes) {
  ScenarioConfig a = sweepBase();
  a.seed = 1;
  ScenarioConfig b = sweepBase();
  b.seed = 2;
  const auto cells = runCells({a, b}, /*repetitions=*/1, /*threads=*/1);
  ASSERT_EQ(cells.size(), 2u);
  // Different seeds give different topologies/timings; latency is a
  // continuous quantity, so equality would be a one-in-2^53 coincidence.
  EXPECT_NE(cells[0].latency(), cells[1].latency());
}

TEST(PooledCounts, SingleRunSummaryCountsAreConsistent) {
  const RunResult r = runScenario(tinyBase());
  // r can slightly exceed the BFS snapshot e under mobility, but both are
  // bounded by broadcasts * hosts; rebroadcasters are a subset of receivers.
  EXPECT_LE(r.summary.totalRebroadcast, r.summary.totalReceived);
  EXPECT_LE(r.summary.totalReceived, r.summary.broadcasts * 20);
  EXPECT_GT(r.wallSeconds, 0.0);
  EXPECT_GE(r.framesPerWallSecond(), 0.0);
}

}  // namespace
}  // namespace manet::experiment
