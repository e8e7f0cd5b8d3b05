// Extension bench: the remaining fixed-threshold baselines of Ni et al.
// [15] that this paper's figures don't re-plot — probabilistic(p) and
// distance-based(D) — next to the counter baseline. Expected shape (from
// [15]): probabilistic trades RE for SRB linearly in p; distance-based
// needs large D to save anything but then loses sparse-map RE, and is
// dominated by the location-based scheme that replaced it.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run() {
  const auto scale = experiment::benchScale(40);
  bench::banner("Extension - the [15] baseline family",
                "probabilistic and distance-based suppression vs counter",
                scale);

  const std::vector<experiment::SchemeSpec> schemes{
      experiment::SchemeSpec::probabilistic(0.7),
      experiment::SchemeSpec::probabilistic(0.4),
      experiment::SchemeSpec::distance(100.0),
      experiment::SchemeSpec::distance(250.0),
      experiment::SchemeSpec::counter(3),
  };

  std::vector<std::string> header{"map"};
  for (const auto& s : schemes) {
    header.push_back(s.name() + "_RE");
    header.push_back(s.name() + "_SRB");
  }
  std::vector<experiment::ScenarioConfig> configs;
  for (int units : experiment::paperMapSizes()) {
    for (const auto& scheme : schemes) {
      experiment::ScenarioConfig config;
      config.mapUnits = units;
      config.scheme = scheme;
      experiment::applyScale(config, scale);
      configs.push_back(config);
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  util::Table table(header);
  auto r = results.begin();
  for (int units : experiment::paperMapSizes()) {
    std::vector<std::string> row{bench::mapLabel(units)};
    for (std::size_t s = 0; s < schemes.size(); ++s, ++r) {
      row.push_back(util::fmt(r->re(), 3));
      row.push_back(util::fmt(r->srb(), 3));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main() { return experiment::benchMain(run); }
