// Fig. 7: adaptive counter-based scheme (AC) vs fixed-threshold counter
// scheme, C in {2, 4, 6}, across the six maps.
//   (a) RE and SRB    (b) average broadcast latency.
// Paper's shape: C=2 gives high SRB but RE collapses on sparse maps; C=6
// keeps RE but wastes rebroadcasts everywhere; AC keeps RE high at every
// density while saving significantly in dense maps.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run(int argc, char** argv) {
  bench::Report report(argc, argv, "fig07_ac_vs_fixed");
  const auto scale = experiment::benchScale(60);
  bench::banner("Fig. 7 - AC vs fixed counter thresholds",
                "AC resolves the RE/SRB dilemma of fixed C", scale);

  const std::vector<experiment::SchemeSpec> schemes{
      experiment::SchemeSpec::counter(2),
      experiment::SchemeSpec::counter(4),
      experiment::SchemeSpec::counter(6),
      experiment::SchemeSpec::adaptiveCounter(),
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
    for (const auto& scheme : schemes) {
      report.add(bench::mapLabel(units) + "/" + scheme.name(), *r);
      row.push_back(util::fmt(r->re(), 3));
      row.push_back(util::fmt(r->srb(), 3));
      row.push_back(util::fmt(r->latency(), 4));
      ++r;
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return experiment::benchMain([&] { return run(argc, argv); });
}
