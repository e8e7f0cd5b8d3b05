#include "experiment/bench_util.hpp"

#include <iostream>

#include "util/env.hpp"

namespace manet::experiment {

BenchScale benchScale(int defaultBroadcasts, int defaultReps,
                      int defaultHosts) {
  BenchScale s;
  s.broadcasts = static_cast<int>(
      util::envInt("REPRO_BROADCASTS", defaultBroadcasts));
  s.repetitions = static_cast<int>(util::envInt("REPRO_REPS", defaultReps));
  s.seed = static_cast<std::uint64_t>(util::envInt("REPRO_SEED", 42));
  s.numHosts = static_cast<int>(util::envInt("REPRO_HOSTS", defaultHosts));
  return s;
}

void applyScale(ScenarioConfig& config, const BenchScale& scale) {
  config.numBroadcasts = scale.broadcasts;
  config.seed = scale.seed;
  config.numHosts = scale.numHosts;
}

int benchMain(const std::function<int()>& body) {
  try {
    return body();
  } catch (const util::EnvError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}

const std::vector<int>& paperMapSizes() {
  static const std::vector<int> sizes{1, 3, 5, 7, 9, 11};
  return sizes;
}

}  // namespace manet::experiment
