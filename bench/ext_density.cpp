// Supporting analysis (not a paper figure): the structure of the paper's six
// maps — average node degree, partition structure, and the expected RE
// denominator e. Explains *why* the schemes behave as they do per density:
// the 1x1 map is one dense clique-ish blob; the 9x9/11x11 maps fragment
// into many small components (footnote 2 is why RE is still meaningful
// there).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/world.hpp"
#include "stats/connectivity.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run() {
  const auto scale = experiment::benchScale(1);
  bench::banner("Analysis - map structure per density",
                "density sweep behind all figures: degree, partitioning, e",
                scale);

  util::Table table({"map", "avg degree", "components", "largest comp",
                     "mean e"});
  for (int units : experiment::paperMapSizes()) {
    experiment::ScenarioConfig config;
    config.mapUnits = units;
    config.numHosts = scale.numHosts;
    config.numBroadcasts = 0;
    config.seed = scale.seed;
    experiment::World world(config);
    const auto positions = world.channel().snapshotPositions();
    const double radius = config.phy.radiusMeters;

    const auto labels = stats::componentLabels(positions, radius);
    int componentCount = 0;
    std::vector<int> sizes;
    for (int label : labels) {
      if (label >= componentCount) componentCount = label + 1;
    }
    sizes.assign(static_cast<std::size_t>(componentCount), 0);
    for (int label : labels) ++sizes[static_cast<std::size_t>(label)];
    int largest = 0;
    for (int s : sizes) largest = std::max(largest, s);

    double meanReachable = 0.0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      meanReachable += stats::reachableCount(positions, radius, i);
    }
    meanReachable /= static_cast<double>(positions.size());

    table.addRow({bench::mapLabel(units),
                  util::fmt(stats::averageDegree(positions, radius), 1),
                  std::to_string(componentCount), std::to_string(largest),
                  util::fmt(meanReachable, 1)});
  }
  table.print(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main() { return experiment::benchMain(run); }
