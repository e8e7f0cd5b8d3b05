// Fig. 11: the neighbor-coverage scheme's RE under different (fixed) hello
// intervals {1, 5, 10, 20, 30 s} and host speeds {20, 40, 60, 80 km/h} on
// maps 5x5 / 7x7 / 9x9 / 11x11.
// Paper's shape: long intervals degrade RE badly on sparse maps, and worse
// at higher speed; on small maps mobility barely matters.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run(int argc, char** argv) {
  bench::Report report(argc, argv, "fig11_hello_interval");
  const auto scale = experiment::benchScale(40);
  bench::banner("Fig. 11 - NC scheme vs hello interval and speed",
                "stale tables (long interval x fast hosts) hurt RE on sparse "
                "maps",
                scale);

  const std::vector<sim::Duration> intervals{
      1 * sim::kSecond, 5 * sim::kSecond, 10 * sim::kSecond,
      20 * sim::kSecond, 30 * sim::kSecond};
  const std::vector<double> speeds{20.0, 40.0, 60.0, 80.0};

  const std::vector<int> maps{5, 7, 9, 11};

  std::vector<experiment::ScenarioConfig> configs;
  for (int units : maps) {
    for (double speed : speeds) {
      for (sim::Duration hi : intervals) {
        experiment::ScenarioConfig config;
        config.mapUnits = units;
        config.maxSpeedKmh = speed;
        config.scheme = experiment::SchemeSpec::neighborCoverage();
        config.neighborSource = experiment::NeighborSource::kHello;
        config.hello.interval = hi;
        experiment::applyScale(config, scale);
        configs.push_back(config);
      }
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  auto r = results.begin();
  for (int units : maps) {
    std::cout << "--- " << bench::mapLabel(units) << " map: RE ---\n";
    std::vector<std::string> header{"speed(km/h)"};
    for (sim::Duration hi : intervals) {
      header.push_back("hi=" + std::to_string(hi / sim::kSecond) + "s");
    }
    util::Table table(header);
    for (double speed : speeds) {
      std::vector<std::string> row{util::fmt(speed, 0)};
      for (sim::Duration hi : intervals) {
        report.add(bench::mapLabel(units) + "/hi=" +
                       std::to_string(hi / sim::kSecond) + "s/" +
                       util::fmt(speed, 0) + "kmh",
                   *r);
        row.push_back(util::fmt(r->re(), 3));
        ++r;
      }
      table.addRow(std::move(row));
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
