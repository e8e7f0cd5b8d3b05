// Shared scaffolding for the figure-reproduction benches: environment-based
// scaling so `bench/*` runs in seconds by default and at paper scale with
//   REPRO_BROADCASTS=10000 REPRO_REPS=3 ./bench/fig13_overall
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "experiment/scenario.hpp"

namespace manet::experiment {

struct BenchScale {
  int broadcasts;        // REPRO_BROADCASTS (paper: 10,000)
  int repetitions;       // REPRO_REPS: seeds averaged per data point
  std::uint64_t seed;    // REPRO_SEED
  int numHosts;          // REPRO_HOSTS (paper: 100)
};

/// Reads the scaling knobs, with per-bench defaults.
BenchScale benchScale(int defaultBroadcasts = 60, int defaultReps = 1,
                      int defaultHosts = 100);

/// Applies a BenchScale onto a scenario.
void applyScale(ScenarioConfig& config, const BenchScale& scale);

/// Every bench's `main` runs its body through here and returns what this
/// returns: the body's exit code, or 2 when a knob read during the run (on
/// any runCells worker too) is malformed. The util::EnvError message goes
/// to stderr; a bench would otherwise end in std::terminate.
int benchMain(const std::function<int()>& body);

/// The paper's map-size sweep {1,3,5,7,9,11}.
const std::vector<int>& paperMapSizes();

}  // namespace manet::experiment
