// Quickstart: run one scenario per scheme on a 5x5 map and print the three
// metrics the paper reports. This is the smallest end-to-end use of the
// public API:
//
//   ScenarioConfig -> runScenario() -> RunResult {RE, SRB, latency}
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [mapUnits] [numBroadcasts]
#include <climits>
#include <iostream>
#include <vector>

#include "experiment/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "parse_int.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

using namespace manet;

int main(int argc, char** argv) {
  int mapUnits = 5;
  int broadcasts = 50;
  if (argc > 3 ||
      (argc > 1 && !examples::parseInt(argv[1], 1, INT_MAX, mapUnits)) ||
      (argc > 2 && !examples::parseInt(argv[2], 0, INT_MAX, broadcasts))) {
    std::cerr << "usage: " << argv[0]
              << " [mapUnits >= 1] [numBroadcasts >= 0]\n";
    return 1;
  }

  // MANET_BENCH_JSON=<dir> turns on metrics collection and writes a run
  // report next to the printed table (the table itself is unchanged).
  const auto jsonDir = util::envString("MANET_BENCH_JSON");
  if (jsonDir) obs::forceCollection(true);
  std::vector<obs::RunSample> samples;

  std::cout << "Broadcast storm suppression on a " << mapUnits << "x"
            << mapUnits << " map (" << broadcasts << " broadcasts, 100 hosts, "
            << "max speed " << 10 * mapUnits << " km/h)\n\n";

  const experiment::SchemeSpec schemes[] = {
      experiment::SchemeSpec::flooding(),
      experiment::SchemeSpec::counter(2),
      experiment::SchemeSpec::counter(4),
      experiment::SchemeSpec::location(0.0134),
      experiment::SchemeSpec::adaptiveCounter(),
      experiment::SchemeSpec::adaptiveLocation(),
      experiment::SchemeSpec::neighborCoverage(),
  };

  util::Table table({"scheme", "RE", "SRB", "latency(s)", "frames"});
  for (const auto& scheme : schemes) {
    experiment::ScenarioConfig config;
    config.mapUnits = mapUnits;
    config.numBroadcasts = broadcasts;
    config.scheme = scheme;
    config.seed = 7;
    // The neighbor-coverage scheme needs (two-hop) HELLO tables; the other
    // adaptive schemes are run with oracle neighbor counts, as in the
    // paper's tuning experiments.
    if (scheme.needsTwoHopInfo()) {
      config.neighborSource = experiment::NeighborSource::kHello;
      config.hello.enabled = true;
      config.hello.dynamic = true;  // the paper's DHI variant
    }
    const experiment::RunResult r = experiment::runScenario(config);
    if (jsonDir) samples.push_back(experiment::toRunSample(r.schemeName, r));
    table.addRow({r.schemeName, util::fmt(r.re(), 3), util::fmt(r.srb(), 3),
                  util::fmt(r.latency(), 3),
                  std::to_string(r.framesTransmitted)});
  }
  table.print(std::cout);
  std::cout << "\nRE = reachability, SRB = saved rebroadcasts (both higher "
               "is better).\n";
  if (jsonDir) {
    obs::writeReportFile(*jsonDir + "/BENCH_quickstart.json", "quickstart",
                         samples);
  }
  return 0;
}
