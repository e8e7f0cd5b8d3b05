// Fig. 10: adaptive location-based scheme AL(6,12) vs the fixed thresholds
// of Ni et al. [15]: A in {0.1871, 0.0469, 0.0134}.
//   (a) RE and SRB    (b) average broadcast latency.
// Paper's shape: fixed A loses RE on sparse maps (badly for large A); AL
// holds RE high everywhere without giving up SRB.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run() {
  const auto scale = experiment::benchScale(60);
  bench::banner("Fig. 10 - AL vs fixed location thresholds",
                "fixed A degrades in sparse maps; AL does not", scale);

  const std::vector<experiment::SchemeSpec> schemes{
      experiment::SchemeSpec::location(0.1871),
      experiment::SchemeSpec::location(0.0469),
      experiment::SchemeSpec::location(0.0134),
      experiment::SchemeSpec::adaptiveLocation(),
  };

  std::vector<std::string> header{"map"};
  for (const auto& s : schemes) {
    header.push_back(s.name() + "_RE");
    header.push_back(s.name() + "_SRB");
    header.push_back(s.name() + "_lat(s)");
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
      row.push_back(util::fmt(r->latency(), 4));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main() { return experiment::benchMain(run); }
