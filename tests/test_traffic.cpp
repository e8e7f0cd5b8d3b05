// Workload delivery accounting (DESIGN.md §12): the traffic.* metric family
// agrees with the run's per-broadcast records and is thread-count invariant.
#include <gtest/gtest.h>

#include "experiment/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace manet::experiment {
namespace {

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
  const auto completed = reg.counter(obs::Counter::kTrafficCompleted);
  EXPECT_EQ(offered, 10u);
  EXPECT_EQ(offered, result.offeredBroadcasts);
  EXPECT_EQ(injected, offered);
  // Kept for bench/perf's reconciliation, and always 0.
  EXPECT_EQ(reg.counter(obs::Counter::kTrafficBlockedHostDown), 0u);
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
  const experiment::ScenarioConfig config = accountingConfig();
  const auto serial = experiment::runCells({config}, 4, 1).front();
  const auto parallel = experiment::runCells({config}, 4, 4).front();
  ASSERT_NE(serial.metrics, nullptr);
  ASSERT_NE(parallel.metrics, nullptr);
  EXPECT_EQ(obs::metricsJson(*serial.metrics, /*includeTiming=*/false),
            obs::metricsJson(*parallel.metrics, /*includeTiming=*/false));
  EXPECT_GT(serial.metrics->counter(obs::Counter::kTrafficCompleted), 0u);
}

}  // namespace
}  // namespace manet::experiment
