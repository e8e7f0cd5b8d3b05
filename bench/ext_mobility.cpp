// Extension bench: sensitivity of the adaptive schemes to the mobility
// model. The paper evaluates only its random-roam pattern; here the same
// schemes run under random-waypoint and group (RPGM) mobility. Expected:
// the adaptive schemes' advantage is model-independent (they react to the
// local density, however it arises); group mobility raises local density
// (teams), which increases SRB for the adaptive schemes.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run() {
  const auto scale = experiment::benchScale(40);
  bench::banner("Extension - mobility-model sensitivity",
                "adaptive advantage holds across mobility models", scale);

  struct Model {
    experiment::ScenarioConfig::Mobility kind;
    const char* name;
  };
  const std::vector<Model> models{
      {experiment::ScenarioConfig::Mobility::kRandomRoam, "roam"},
      {experiment::ScenarioConfig::Mobility::kWaypoint, "waypoint"},
      {experiment::ScenarioConfig::Mobility::kGroup, "group"},
  };
  const std::vector<experiment::SchemeSpec> schemes{
      experiment::SchemeSpec::counter(2),
      experiment::SchemeSpec::adaptiveCounter(),
  };

  const std::vector<int> maps{3, 9};

  std::vector<experiment::ScenarioConfig> configs;
  for (int units : maps) {
    for (const auto& model : models) {
      for (const auto& scheme : schemes) {
        experiment::ScenarioConfig config;
        config.mapUnits = units;
        config.scheme = scheme;
        config.mobility = model.kind;
        experiment::applyScale(config, scale);
        configs.push_back(config);
      }
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  auto r = results.begin();
  for (int units : maps) {
    std::cout << "--- " << bench::mapLabel(units) << " map ---\n";
    std::vector<std::string> header{"mobility"};
    for (const auto& s : schemes) {
      header.push_back(s.name() + "_RE");
      header.push_back(s.name() + "_SRB");
    }
    util::Table table(header);
    for (const auto& model : models) {
      std::vector<std::string> row{model.name};
      for (std::size_t s = 0; s < schemes.size(); ++s, ++r) {
        row.push_back(util::fmt(r->re(), 3));
        row.push_back(util::fmt(r->srb(), 3));
      }
      table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main() { return experiment::benchMain(run); }
