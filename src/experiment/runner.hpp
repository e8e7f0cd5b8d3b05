// One-call scenario execution with the derived quantities the figures need.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "obs/report.hpp"
#include "stats/metrics.hpp"

namespace manet::experiment {

struct RunResult {
  stats::RunSummary summary;
  /// Seed of the (first) repetition, echoed into run reports.
  std::uint64_t seed = 0;
  /// Engine metrics collected during the run; null unless collection was on
  /// (MANET_METRICS / obs::forceCollection). Pooled results own the ordered
  /// merge of every repetition's registry.
  std::shared_ptr<obs::Registry> metrics;
  /// HELLO traffic rate, packets per host per simulated second (Fig. 12b's
  /// y-axis up to a normalization).
  double hellosPerHostPerSecond = 0.0;
  /// Broadcast requests the workload scheduled (DESIGN.md §12).
  std::uint64_t offeredBroadcasts = 0;
  /// Channel-level accounting over the whole run.
  std::uint64_t framesTransmitted = 0;
  std::uint64_t framesDelivered = 0;
  std::uint64_t framesCorrupted = 0;
  double simulatedSeconds = 0.0;
  /// Host wall-clock time spent simulating (summed across repetitions in
  /// pooled results, so it stays meaningful under parallel execution).
  double wallSeconds = 0.0;
  std::string schemeName;

  // The paper's metrics: means of per-broadcast ratios (mean of r_i/e_i,
  // etc.). Every figure bench reports these — they match the paper's
  // per-broadcast averaging, and for pooled results they are the
  // mean-of-means across repetitions.
  double re() const { return summary.meanRe; }
  double srb() const { return summary.meanSrb; }
  double latency() const { return summary.meanLatencySeconds; }

  /// Simulation throughput: channel frames processed per wall-clock second.
  /// The headline number for the grid/parallel speedups (BENCH json output).
  double framesPerWallSecond() const {
    return wallSeconds > 0.0
               ? static_cast<double>(framesTransmitted) / wallSeconds
               : 0.0;
  }
};

/// Builds a World from `config`, runs it to completion, and extracts results.
RunResult runScenario(const ScenarioConfig& config);

/// Pools per-repetition results: RE/SRB/latency/hello-rate become arithmetic
/// means across runs (the figures' numbers); counts (broadcasts, frames,
/// raw r/t/e, wall-clock) are summed. `runs` must be non-empty and ordered
/// by repetition so float accumulation is deterministic.
RunResult poolRuns(std::span<const RunResult> runs);

/// The one experiment fan-out (DESIGN.md §7). Runs every config as a cell
/// averaged over `repetitions` consecutive seeds (seed, seed+1, ...): each
/// (cell, repetition) pair is one job on a single pool of `threads` workers
/// (0 = auto via MANET_THREADS / hardware concurrency, 1 = serial), owning a
/// private World/Scheduler/RNG seeded exactly as the serial path. Each
/// cell's runs are pooled with poolRuns in repetition order (a single
/// repetition is returned as run, percentiles included) and the results
/// come back in cell order, so the outcome is identical for any thread
/// count.
std::vector<RunResult> runCells(const std::vector<ScenarioConfig>& configs,
                                int repetitions, int threads = 0);

/// runCells over one cell.
RunResult runScenarioAveraged(const ScenarioConfig& config, int repetitions,
                              int threads = 1);

/// Flattens a RunResult into the run-report row obs::writeReport serializes.
obs::RunSample toRunSample(std::string label, const RunResult& result);

}  // namespace manet::experiment
