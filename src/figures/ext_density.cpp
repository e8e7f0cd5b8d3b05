// Supporting analysis (not a paper figure): the structure of the paper's six
// maps — average node degree, partition structure, and the expected RE
// denominator e. Explains *why* the schemes behave as they do per density:
// the 1x1 map is one dense clique-ish blob; the 9x9/11x11 maps fragment
// into many small components (footnote 2 is why RE is still meaningful
// there).
#include <algorithm>

#include "experiment/world.hpp"
#include "figures/figure.hpp"
#include "stats/connectivity.hpp"

namespace manet::figures {

const Figure kDensity{
    "ext_density", "Analysis - map structure per density",
    "density sweep behind all figures: degree, partitioning, e", 1, nullptr,
    [](Results, const Scale& scale, std::ostream& out) {
      util::Table table(
          {"map", "avg degree", "components", "largest comp", "mean e"});
      for (int units : paperMapSizes()) {
        experiment::ScenarioConfig config;
        config.mapUnits = units;
        applyScale(config, scale);
        config.numBroadcasts = 0;
        experiment::World world(config);
        const auto positions = world.channel().snapshotPositions();
        const double radius = config.phy.radiusMeters;

        const auto labels = stats::componentLabels(positions, radius);
        std::vector<int> sizes(static_cast<std::size_t>(
            labels.empty() ? 0 : std::ranges::max(labels) + 1));
        for (int label : labels) ++sizes[static_cast<std::size_t>(label)];

        double meanReachable = 0.0;
        for (std::size_t i = 0; i < positions.size(); ++i) {
          meanReachable += stats::reachableCount(positions, radius, i);
        }
        meanReachable /= static_cast<double>(positions.size());

        table.addRow({mapLabel(units),
                      util::fmt(stats::averageDegree(positions, radius), 1),
                      std::to_string(sizes.size()),
                      std::to_string(
                          sizes.empty() ? 0 : std::ranges::max(sizes)),
                      util::fmt(meanReachable, 1)});
      }
      table.print(out);
      out << "\n";
    }};

}  // namespace manet::figures
