// Rescue scenario: one of the paper's motivating MANET settings ("rescue
// scenes" — infrastructure destroyed, teams spread over a wide area, command
// post periodically broadcasting situation updates).
//
// Models a sparse 9x9 map with fast-moving teams, where every update matters
// (RE is safety-critical) but radio bandwidth is scarce (hello and data
// traffic both cost). Compares the schemes the paper recommends for exactly
// this regime and prints a dashboard of RE / SRB / latency / traffic.
//
//   ./build/examples/rescue_scenario [updates]
#include <climits>
#include <iostream>

#include "experiment/runner.hpp"
#include "parse_int.hpp"
#include "util/table.hpp"

using namespace manet;

int main(int argc, char** argv) {
  int updates = 40;
  if (argc > 2 ||
      (argc > 1 && !examples::parseInt(argv[1], 0, INT_MAX, updates))) {
    std::cerr << "usage: " << argv[0] << " [updates >= 0]\n";
    return 1;
  }

  std::cout << "Disaster-area broadcast: 100 rescuers on a 4.5 km x 4.5 km "
               "zone,\nteams moving at up to 60 km/h, "
            << updates << " situation updates.\n\n";

  struct Candidate {
    experiment::SchemeSpec scheme;
    experiment::NeighborSource source;
    bool dhi;
    const char* note;
  };
  const Candidate candidates[] = {
      {experiment::SchemeSpec::flooding(), experiment::NeighborSource::kOracle,
       false, "baseline"},
      {experiment::SchemeSpec::adaptiveCounter(),
       experiment::NeighborSource::kHello, false,
       "no GPS needed, 1-hop hellos"},
      {experiment::SchemeSpec::adaptiveLocation(),
       experiment::NeighborSource::kHello, false, "needs GPS"},
      {experiment::SchemeSpec::neighborCoverage(),
       experiment::NeighborSource::kHello, true, "2-hop hellos + DHI"},
  };

  util::Table table({"scheme", "RE", "SRB", "latency(s)", "hello pkts/host/s",
                     "note"});
  for (const auto& cand : candidates) {
    experiment::ScenarioConfig config;
    config.mapUnits = 9;
    config.maxSpeedKmh = 60.0;
    // Rescuers move in teams of five (reference-point group mobility), the
    // structure real search parties have.
    config.mobility = experiment::ScenarioConfig::Mobility::kGroup;
    config.groupSize = 5;
    config.groupSpanMeters = 200.0;
    config.numBroadcasts = updates;
    config.scheme = cand.scheme;
    config.neighborSource = cand.source;
    if (cand.source == experiment::NeighborSource::kHello) {
      config.hello.enabled = true;
      config.hello.dynamic = cand.dhi;
    }
    config.seed = 2026;
    const auto r = experiment::runScenario(config);
    table.addRow({r.schemeName, util::fmt(r.re(), 3), util::fmt(r.srb(), 3),
                  util::fmt(r.latency(), 3),
                  util::fmt(r.hellosPerHostPerSecond, 2), cand.note});
  }
  table.print(std::cout);
  std::cout << "\nIn this sparse, fast-moving regime the paper recommends the "
               "adaptive schemes:\nfixed thresholds would have to be "
               "re-tuned every time team density changes.\n";
  return 0;
}
