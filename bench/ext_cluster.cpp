// Extension bench (Ni et al. [15]'s remaining scheme family): the
// cluster-based scheme against flooding / fixed counter / the adaptive
// schemes. Expected shape from [15]: the cluster backbone saves heavily in
// dense networks (plain members never relay) but costs reachability in
// sparse, mobile ones where the backbone itself is fragile.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

int main() {
  const auto scale = experiment::benchScale(40);
  bench::banner("Extension - cluster-based scheme ([15])",
                "big dense-map savings from a relay backbone; fragile when "
                "sparse",
                scale);

  const std::vector<experiment::SchemeSpec> schemes{
      experiment::SchemeSpec::flooding(),
      experiment::SchemeSpec::counter(3),
      experiment::SchemeSpec::clusterBased(3),
      experiment::SchemeSpec::adaptiveCounter(),
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
