// Fig. 13: overall comparison per map (a-f = 1x1 .. 11x11): flooding,
// C=2, C=6, AC, A=0.1871, A=0.0134, AL, and NC with dynamic hello interval
// (NC-DHI). Each cell is an (SRB, RE) point; the paper plots them as a
// scatter where upper-right is best.
// Paper's shape: flooding only competitive on mid-density maps; NC-DHI best
// in dense maps; AC/AL best in sparse maps; adaptive schemes hold RE >= 95%
// everywhere.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run(int argc, char** argv) {
  bench::Report report(argc, argv, "fig13_overall");
  const auto scale = experiment::benchScale(60);
  bench::banner("Fig. 13 - overall comparison (one table per map)",
                "adaptive schemes keep RE >= ~95% at every density", scale);

  struct Entry {
    experiment::SchemeSpec scheme;
    bool helloBased = false;
    bool dhi = false;
  };
  std::vector<Entry> entries;
  entries.push_back({experiment::SchemeSpec::flooding()});
  entries.push_back({experiment::SchemeSpec::counter(2)});
  entries.push_back({experiment::SchemeSpec::counter(6)});
  entries.push_back({experiment::SchemeSpec::adaptiveCounter()});
  entries.push_back({experiment::SchemeSpec::location(0.1871)});
  entries.push_back({experiment::SchemeSpec::location(0.0134)});
  entries.push_back({experiment::SchemeSpec::adaptiveLocation()});
  Entry nc{experiment::SchemeSpec::neighborCoverage()};
  nc.helloBased = true;
  nc.dhi = true;
  nc.scheme.label = "NC-DHI";
  entries.push_back(nc);

  std::vector<experiment::ScenarioConfig> configs;
  for (int units : experiment::paperMapSizes()) {
    for (const auto& entry : entries) {
      experiment::ScenarioConfig config;
      config.mapUnits = units;
      config.scheme = entry.scheme;
      if (entry.helloBased) {
        config.neighborSource = experiment::NeighborSource::kHello;
        config.hello.dynamic = entry.dhi;
      }
      experiment::applyScale(config, scale);
      configs.push_back(config);
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  auto r = results.begin();
  for (int units : experiment::paperMapSizes()) {
    std::cout << "--- " << bench::mapLabel(units) << " map (max speed "
              << 10 * units << " km/h) ---\n";
    util::Table table({"scheme", "SRB", "RE", "latency(s)"});
    for (const auto& entry : entries) {
      report.add(bench::mapLabel(units) + "/" + entry.scheme.name(), *r);
      table.addRow({entry.scheme.name(), util::fmt(r->srb(), 3),
                    util::fmt(r->re(), 3), util::fmt(r->latency(), 4)});
      ++r;
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return experiment::benchMain([&] { return run(argc, argv); });
}
