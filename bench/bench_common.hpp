// Shared output conventions for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/bench_util.hpp"
#include "experiment/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/env.hpp"

namespace manet::bench {

/// Prints the standard bench banner: which figure, what the paper shows,
/// and the scale this invocation runs at.
inline void banner(const std::string& figure, const std::string& claim,
                   const experiment::BenchScale& scale) {
  std::cout << "=== " << figure << " ===\n"
            << "Paper: " << claim << "\n"
            << "Scale: " << scale.broadcasts << " broadcasts/point x "
            << scale.repetitions << " rep(s), " << scale.numHosts
            << " hosts, seed " << scale.seed
            << "  (env: REPRO_BROADCASTS REPRO_REPS REPRO_SEED REPRO_HOSTS; "
               "paper used 10,000 broadcasts)\n\n";
}

inline std::string mapLabel(int units) {
  return std::to_string(units) + "x" + std::to_string(units);
}

/// Optional machine-readable run report (DESIGN.md §10). Enabled by
/// `--json <path>` on the command line, or by MANET_BENCH_JSON=<dir> in the
/// environment (the report then lands at <dir>/BENCH_<name>.json). When
/// enabled, metrics collection is forced on for the whole process and the
/// report is written on destruction. Everything goes to the file or stderr,
/// never stdout: the printed tables stay byte-identical either way.
class Report {
 public:
  Report(int argc, char** argv, std::string name) : name_(std::move(name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
    }
    if (path_.empty()) {
      if (const auto dir = util::envString("MANET_BENCH_JSON")) {
        path_ = *dir + "/BENCH_" + name_ + ".json";
      }
    }
    if (enabled()) obs::forceCollection(true);
  }

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  // A run that ends by an exception (a malformed knob, say) writes none.
  ~Report() {
    if (!enabled() || std::uncaught_exceptions() > 0) return;
    if (obs::writeReportFile(path_, name_, samples_)) {
      std::cerr << "bench: wrote " << path_ << " (" << samples_.size()
                << " rows)\n";
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Records one table row. `label` must be unique within the report — the
  /// comparison tool joins baseline and candidate rows on it.
  void add(std::string label, const experiment::RunResult& result) {
    if (!enabled()) return;
    samples_.push_back(experiment::toRunSample(std::move(label), result));
  }

 private:
  std::string name_;
  std::string path_;
  std::vector<obs::RunSample> samples_;
};

}  // namespace manet::bench
