#include "experiment/runner.hpp"

#include <chrono>
#include <utility>

#include "experiment/parallel.hpp"
#include "experiment/world.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"

namespace manet::experiment {

RunResult runScenario(const ScenarioConfig& config) {
  const auto wallStart = std::chrono::steady_clock::now();
  // Each repetition owns a private registry, installed on the running
  // thread for the duration of the run (parallel repetitions each own
  // their thread, so there is no sharing).
  std::shared_ptr<obs::Registry> metrics;
  if (obs::collectionEnabled()) metrics = std::make_shared<obs::Registry>();
  obs::ScopedRegistry scoped(metrics.get());

  std::unique_ptr<World> world;
  {
    obs::ProfileScope profileBuild("scenario.build");
    world = std::make_unique<World>(config);
  }
  {
    obs::ProfileScope profileRun("scenario.run");
    world->run();
  }

  obs::ProfileScope profileCollect("scenario.collect");
  // Per-broadcast delivery accounting (DESIGN.md §12): fold the run's
  // per-broadcast records into the traffic.* metric family. This happens on
  // the run's thread with its private registry installed, in broadcast
  // order, so merged registries stay byte-identical for any MANET_THREADS.
  if (obs::Registry* registry = obs::current()) {
    for (const stats::PerBroadcast& b : world->metrics().broadcasts()) {
      registry->add(obs::Counter::kTrafficCompleted);
      registry->add(obs::Counter::kTrafficDeliveredCopies,
                    static_cast<std::uint64_t>(b.received));
      registry->add(obs::Counter::kTrafficReachableSum,
                    static_cast<std::uint64_t>(b.reachable));
      registry->observe(
          obs::Hist::kTrafficLatencyUs,
          static_cast<double>(
              (b.lastFinal - b.start).ticks()));  // NOLINT-units(metric sample in raw microseconds)
      registry->observe(obs::Hist::kTrafficDeliveryPct,
                        100.0 * b.reachability());
    }
  }
  RunResult out;
  out.seed = config.seed;
  out.summary = world->metrics().summarize();
  out.offeredBroadcasts = world->workloadSchedule().size();
  out.schemeName = config.scheme.name();
  out.simulatedSeconds = sim::toSeconds(world->scheduler().now());
  out.framesTransmitted = world->channel().framesTransmitted();
  out.framesDelivered = world->channel().framesDelivered();
  out.framesCorrupted = world->channel().framesCorrupted();
  if (out.simulatedSeconds > 0.0 && world->hostCount() > 0) {
    out.hellosPerHostPerSecond =
        static_cast<double>(out.summary.hellosSent) /
        (out.simulatedSeconds * static_cast<double>(world->hostCount()));
  }
  out.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wallStart)
          .count();
  out.metrics = std::move(metrics);
  return out;
}

RunResult poolRuns(std::span<const RunResult> runs) {
  MANET_EXPECTS(!runs.empty());
  RunResult pooled;
  double re = 0.0;
  double srb = 0.0;
  double latency = 0.0;
  double helloRate = 0.0;
  for (const RunResult& r : runs) {
    re += r.re();
    srb += r.srb();
    latency += r.latency();
    helloRate += r.hellosPerHostPerSecond;
    pooled.summary.broadcasts += r.summary.broadcasts;
    pooled.summary.hellosSent += r.summary.hellosSent;
    pooled.summary.dataFramesSent += r.summary.dataFramesSent;
    pooled.summary.totalReceived += r.summary.totalReceived;
    pooled.summary.totalRebroadcast += r.summary.totalRebroadcast;
    pooled.summary.totalReachable += r.summary.totalReachable;
    pooled.offeredBroadcasts += r.offeredBroadcasts;
    pooled.framesTransmitted += r.framesTransmitted;
    pooled.framesDelivered += r.framesDelivered;
    pooled.framesCorrupted += r.framesCorrupted;
    pooled.simulatedSeconds += r.simulatedSeconds;
    pooled.wallSeconds += r.wallSeconds;
    pooled.schemeName = r.schemeName;
    // Ordered merge: `runs` is in repetition order, so the pooled registry
    // (histogram float sums included) is identical for any thread count.
    if (r.metrics != nullptr) {
      if (pooled.metrics == nullptr) {
        pooled.metrics = std::make_shared<obs::Registry>();
      }
      pooled.metrics->merge(*r.metrics);
    }
  }
  pooled.seed = runs.front().seed;
  const auto n = static_cast<double>(runs.size());
  pooled.summary.meanRe = re / n;
  pooled.summary.meanSrb = srb / n;
  pooled.summary.meanLatencySeconds = latency / n;
  pooled.hellosPerHostPerSecond = helloRate / n;
  return pooled;
}

std::vector<RunResult> runCells(const std::vector<ScenarioConfig>& configs,
                                int repetitions, int threads) {
  MANET_EXPECTS(repetitions >= 1);
  const auto reps = static_cast<std::size_t>(repetitions);
  // Job `cell * reps + rep` writes only its own slot, so completion order
  // never reaches the output.
  std::vector<RunResult> runs(configs.size() * reps);
  parallelFor(
      runs.size(),
      [&configs, &runs, reps](std::size_t job) {
        ScenarioConfig config = configs[job / reps];
        config.seed += static_cast<std::uint64_t>(job % reps);
        runs[job] = runScenario(config);
      },
      threads);

  std::vector<RunResult> out;
  out.reserve(configs.size());
  for (std::size_t cell = 0; cell < configs.size(); ++cell) {
    if (reps == 1) {
      out.push_back(std::move(runs[cell]));
    } else {
      out.push_back(poolRuns(std::span<const RunResult>(runs).subspan(
          cell * reps, reps)));
    }
  }
  return out;
}

obs::RunSample toRunSample(std::string label, const RunResult& result) {
  obs::RunSample s;
  s.label = std::move(label);
  s.scheme = result.schemeName;
  s.seed = result.seed;
  s.re = result.re();
  s.srb = result.srb();
  s.latencySeconds = result.latency();
  s.hellosPerHostPerSecond = result.hellosPerHostPerSecond;
  s.broadcasts = result.summary.broadcasts;
  s.offeredBroadcasts = result.offeredBroadcasts;
  s.framesTransmitted = result.framesTransmitted;
  s.framesDelivered = result.framesDelivered;
  s.framesCorrupted = result.framesCorrupted;
  s.simulatedSeconds = result.simulatedSeconds;
  s.wallSeconds = result.wallSeconds;
  s.framesPerWallSecond = result.framesPerWallSecond();
  s.metrics = result.metrics;
  return s;
}

}  // namespace manet::experiment
