// Machine-readable run reports (DESIGN.md §10).
//
// One report = one bench invocation: a versioned JSON document carrying an
// environment manifest (seed knobs, git sha, build flags, every REPRO_* /
// MANET_* variable that was set) plus one RunSample per table row — the
// paper metrics, the engine throughput, and the full metrics registry of
// that run. tools/compare_bench.py consumes these against the committed
// baselines under bench/baselines/.
//
// Schema policy: kSchema names the document type; kSchemaVersion bumps on
// any backwards-incompatible change (key renamed/removed/retyped, metric
// name retired). Adding keys or metric names is backwards-compatible and
// does NOT bump the version — consumers must ignore unknown keys.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace manet::obs {

inline constexpr const char* kSchema = "manet.bench-report";
inline constexpr int kSchemaVersion = 3;

/// One simulation result row of a report. Deliberately engine-agnostic (the
/// obs layer sits below experiment); experiment::toRunSample fills one from
/// a RunResult.
struct RunSample {
  std::string label;   // report-unique row key, e.g. "5x5/flooding"
  std::string scheme;  // scheme name as printed in the bench table
  std::uint64_t seed = 0;

  // The paper's metrics.
  double re = 0.0;
  double srb = 0.0;
  double latencySeconds = 0.0;
  double hellosPerHostPerSecond = 0.0;

  // Engine accounting.
  std::uint64_t broadcasts = 0;
  /// Requests the workload scheduled.
  std::uint64_t offeredBroadcasts = 0;
  std::uint64_t framesTransmitted = 0;
  std::uint64_t framesDelivered = 0;
  std::uint64_t framesCorrupted = 0;
  double simulatedSeconds = 0.0;
  double wallSeconds = 0.0;
  /// The trajectory's headline throughput number (frames / wall second).
  double framesPerWallSecond = 0.0;

  /// Merged metrics registry of the run(s) behind this row; may be null
  /// when collection was off.
  std::shared_ptr<const Registry> metrics;
};

/// Serializes a registry as a JSON object (counters/gauges/histograms in
/// declaration order, profiling scopes by name). `includeTiming` = false
/// omits the wall-clock profile section, leaving only deterministic content
/// — what the thread-count-invariance test compares byte-for-byte.
std::string metricsJson(const Registry& registry, bool includeTiming = true);

/// Writes a complete report document to `out`.
void writeReport(std::ostream& out, const std::string& bench,
                 const std::vector<RunSample>& samples);

/// writeReport to a file; returns false (and reports to stderr) on I/O
/// failure. Parent directories are not created.
bool writeReportFile(const std::string& path, const std::string& bench,
                     const std::vector<RunSample>& samples);

}  // namespace manet::obs
