// Fig. 12: the neighbor-coverage scheme with the dynamic hello interval
// (nv_max = 0.02, hi in [1 s, 10 s]) across maps and host speeds.
//   (a) RE and SRB stay high regardless of speed and density;
//   (b) hello traffic adapts: sparse maps (high variation) pick ~hi_min,
//       the 1x1 map (no variation) sits near hi_max.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run(int argc, char** argv) {
  bench::Report report(argc, argv, "fig12_nc_dhi");
  const auto scale = experiment::benchScale(40);
  bench::banner("Fig. 12 - NC with dynamic hello interval (DHI)",
                "RE stays high at all speeds/densities; hello rate adapts",
                scale);

  const std::vector<int> maps{1, 3, 5, 9, 11};
  const std::vector<double> speeds{20.0, 40.0, 60.0, 80.0};

  std::cout << "--- Fig. 12a: RE (top) and SRB (bottom) ---\n";
  util::Table re({"speed(km/h)", "1x1", "3x3", "5x5", "9x9", "11x11"});
  util::Table srb({"speed(km/h)", "1x1", "3x3", "5x5", "9x9", "11x11"});
  std::cout << "--- Fig. 12b companion: hello packets per host per second "
               "---\n";
  util::Table rate({"speed(km/h)", "1x1", "3x3", "5x5", "9x9", "11x11"});

  std::vector<experiment::ScenarioConfig> configs;
  for (double speed : speeds) {
    for (int units : maps) {
      experiment::ScenarioConfig config;
      config.mapUnits = units;
      config.maxSpeedKmh = speed;
      config.scheme = experiment::SchemeSpec::neighborCoverage();
      config.neighborSource = experiment::NeighborSource::kHello;
      config.hello.dynamic = true;  // nvMax = 0.02, [1 s, 10 s] defaults
      experiment::applyScale(config, scale);
      configs.push_back(config);
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  auto r = results.begin();
  for (double speed : speeds) {
    std::vector<std::string> reRow{util::fmt(speed, 0)};
    std::vector<std::string> srbRow{util::fmt(speed, 0)};
    std::vector<std::string> rateRow{util::fmt(speed, 0)};
    for (int units : maps) {
      report.add(bench::mapLabel(units) + "/" + util::fmt(speed, 0) + "kmh",
                 *r);
      reRow.push_back(util::fmt(r->re(), 3));
      srbRow.push_back(util::fmt(r->srb(), 3));
      rateRow.push_back(util::fmt(r->hellosPerHostPerSecond, 3));
      ++r;
    }
    re.addRow(std::move(reRow));
    srb.addRow(std::move(srbRow));
    rate.addRow(std::move(rateRow));
  }
  std::cout << "RE:\n";
  re.print(std::cout);
  std::cout << "\nSRB:\n";
  srb.print(std::cout);
  std::cout << "\nHello rate (pkts/host/s; 1.0 = hi_min, 0.1 = hi_max):\n";
  rate.print(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return experiment::benchMain([&] { return run(argc, argv); });
}
