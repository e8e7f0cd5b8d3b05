// Ablation (not in the paper): the 0..31-slot pre-MAC jitter of scheme step
// S2. Without it, all receivers of a transmission contend for the medium at
// the same instant and — after a long-idle period — transmit simultaneously,
// so the collision rate explodes and RE drops. This justifies the jitter
// window the paper builds into every scheme.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run() {
  const auto scale = experiment::benchScale(40);
  bench::banner("Ablation - S2 jitter window",
                "no jitter => synchronized rebroadcasts => collisions",
                scale);

  const std::vector<int> windows{0, 4, 16, 31, 64};
  const std::vector<int> maps{1, 5};

  std::vector<experiment::ScenarioConfig> configs;
  for (int units : maps) {
    for (int w : windows) {
      experiment::ScenarioConfig config;
      config.mapUnits = units;
      config.scheme = experiment::SchemeSpec::flooding();
      config.jitterSlots = w;
      experiment::applyScale(config, scale);
      configs.push_back(config);
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  auto r = results.begin();
  for (int units : maps) {
    std::cout << "--- " << bench::mapLabel(units) << " map, flooding ---\n";
    util::Table table(
        {"jitterSlots", "RE", "collision_frac", "latency(s)"});
    for (int w : windows) {
      const double total = static_cast<double>(r->framesDelivered +
                                               r->framesCorrupted);
      const double collisionFrac =
          total > 0 ? static_cast<double>(r->framesCorrupted) / total : 0.0;
      table.addRow({std::to_string(w), util::fmt(r->re(), 3),
                    util::fmt(collisionFrac, 3), util::fmt(r->latency(), 4)});
      ++r;
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main() { return experiment::benchMain(run); }
