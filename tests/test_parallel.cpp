// Determinism and pool-machinery tests for the parallel experiment runner:
// a sweep must produce byte-identical output for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/parallel.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
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

std::vector<SweepAxis> threeAxes() {
  return {schemeAxis({SchemeSpec::flooding(), SchemeSpec::counter(3)}),
          mapAxis({1, 3}), speedAxis({10.0, 30.0})};
}

/// The tentpole guarantee: parallel runSweep output is identical to the
/// serial run — same cells, same coordinates, same table bytes.
TEST(ParallelSweep, ThreeAxisSweepIsIdenticalToSerial) {
  const ScenarioConfig base = tinyBase();
  const auto axes = threeAxes();
  const auto serial = runSweep(base, axes, /*repetitions=*/2, /*threads=*/1);
  const auto parallel = runSweep(base, axes, /*repetitions=*/2, /*threads=*/4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].coordinates, parallel[i].coordinates);
    EXPECT_EQ(serial[i].result.re(), parallel[i].result.re());
    EXPECT_EQ(serial[i].result.srb(), parallel[i].result.srb());
    EXPECT_EQ(serial[i].result.latency(), parallel[i].result.latency());
    EXPECT_EQ(serial[i].result.framesTransmitted,
              parallel[i].result.framesTransmitted);
    EXPECT_EQ(serial[i].result.summary.totalReceived,
              parallel[i].result.summary.totalReceived);
  }

  std::ostringstream serialOut;
  std::ostringstream parallelOut;
  sweepTable(axes, serial).print(serialOut);
  sweepTable(axes, parallel).print(parallelOut);
  EXPECT_EQ(serialOut.str(), parallelOut.str());
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

/// Fault injection must stay deterministic under parallel execution: every
/// fault draw comes from a per-run forked stream, so a sweep with loss and
/// churn enabled is byte-identical for any thread count.
TEST(ParallelSweep, FaultSweepIsIdenticalAcrossThreadCounts) {
  ScenarioConfig base = tinyBase();
  base.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
  base.fault.churn = true;
  base.fault.churnFraction = 0.5;
  base.fault.meanUpTime = 3 * sim::kSecond;
  base.fault.meanDownTime = 1 * sim::kSecond;
  const std::vector<SweepAxis> axes{
      schemeAxis({SchemeSpec::flooding(), SchemeSpec::counter(3)})};

  const auto serial = runSweep(base, axes, /*repetitions=*/2, /*threads=*/1);
  const auto parallel = runSweep(base, axes, /*repetitions=*/2, /*threads=*/4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.framesTransmitted,
              parallel[i].result.framesTransmitted);
    EXPECT_EQ(serial[i].result.framesLostToFault,
              parallel[i].result.framesLostToFault);
    EXPECT_EQ(serial[i].result.framesDroppedHostDown,
              parallel[i].result.framesDroppedHostDown);
    EXPECT_EQ(serial[i].result.hostDownSeconds,
              parallel[i].result.hostDownSeconds);
    EXPECT_EQ(serial[i].result.re(), parallel[i].result.re());
  }

  std::ostringstream serialOut;
  std::ostringstream parallelOut;
  sweepTable(axes, serial).print(serialOut);
  sweepTable(axes, parallel).print(parallelOut);
  EXPECT_EQ(serialOut.str(), parallelOut.str());
  // The fault columns actually appear for fault-enabled sweeps.
  EXPECT_NE(serialOut.str().find("lost"), std::string::npos);
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
