// Scheme playground: a small CLI over the full public API. Pick any scheme,
// any density, any speed, any neighbor-information source, and get the
// paper's three metrics — useful both for exploring the design space and as
// a template for embedding the library in your own experiments.
//
//   ./build/examples/scheme_playground --scheme=ac --map=7 --speed=50
//       --broadcasts=100 --hosts=100 --seed=3 --hello --dhi
//
// Schemes: flood | counter=<C> | location=<A> | ac | al | nc
#include <climits>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "experiment/runner.hpp"
#include "parse_int.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

bool parseDouble(const std::string& text, double lo, double hi, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  if (!(value >= lo && value <= hi)) return false;  // also rejects NaN
  out = value;
  return true;
}

bool parseScheme(const std::string& text, experiment::SchemeSpec& out) {
  auto valueOf = [&](const char* prefix) -> std::string {
    return text.substr(std::strlen(prefix));
  };
  int n = 0;
  double x = 0.0;
  if (text == "flood") {
    out = experiment::SchemeSpec::flooding();
  } else if (text.rfind("counter=", 0) == 0) {
    if (!examples::parseInt(valueOf("counter="), 1, INT_MAX, n)) return false;
    out = experiment::SchemeSpec::counter(n);
  } else if (text.rfind("location=", 0) == 0) {
    if (!parseDouble(valueOf("location="), 0.0, 1.0, x)) return false;
    out = experiment::SchemeSpec::location(x);
  } else if (text == "ac") {
    out = experiment::SchemeSpec::adaptiveCounter();
  } else if (text == "al") {
    out = experiment::SchemeSpec::adaptiveLocation();
  } else if (text == "nc") {
    out = experiment::SchemeSpec::neighborCoverage();
  } else {
    return false;
  }
  return true;
}

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--scheme=S] [--map=N] [--speed=KMH] [--broadcasts=B]\n"
         "          [--hosts=H] [--seed=SEED] [--hello] [--dhi] "
         "[--no-collisions]\n"
         "schemes: flood counter=<C> location=<A> ac al nc\n"
         "ranges: C >= 1, 0 <= A <= 1, N >= 1, B >= 0, H >= 1\n";
}

}  // namespace

int main(int argc, char** argv) {
  experiment::ScenarioConfig config;
  config.mapUnits = 5;
  config.numBroadcasts = 50;
  config.seed = 1;
  config.scheme = experiment::SchemeSpec::adaptiveCounter();
  bool hello = false;
  bool dhi = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto valueOf = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    bool valid = true;
    if (arg.rfind("--scheme=", 0) == 0) {
      valid = parseScheme(valueOf("--scheme="), config.scheme);
    } else if (arg.rfind("--map=", 0) == 0) {
      valid = examples::parseInt(valueOf("--map="), 1, INT_MAX,
                                 config.mapUnits);
    } else if (arg.rfind("--speed=", 0) == 0) {
      // A negative speed selects the paper's 10*N km/h rule.
      valid = parseDouble(valueOf("--speed="),
                          std::numeric_limits<double>::lowest(),
                          std::numeric_limits<double>::max(),
                          config.maxSpeedKmh);
    } else if (arg.rfind("--broadcasts=", 0) == 0) {
      valid = examples::parseInt(valueOf("--broadcasts="), 0, INT_MAX,
                                 config.numBroadcasts);
    } else if (arg.rfind("--hosts=", 0) == 0) {
      valid = examples::parseInt(valueOf("--hosts="), 1, INT_MAX,
                                 config.numHosts);
    } else if (arg.rfind("--seed=", 0) == 0) {
      valid = examples::parseInt(valueOf("--seed="), LLONG_MIN, LLONG_MAX,
                                 config.seed);
    } else if (arg == "--hello") {
      hello = true;
    } else if (arg == "--dhi") {
      hello = true;
      dhi = true;
    } else if (arg == "--no-collisions") {
      config.collisions = false;
    } else {
      usage(argv[0]);
      return arg == "--help" ? 0 : 1;
    }
    if (!valid) {
      std::cerr << argv[0] << ": bad argument " << arg << "\n";
      usage(argv[0]);
      return 1;
    }
  }

  if (hello || config.scheme.needsTwoHopInfo()) {
    config.neighborSource = experiment::NeighborSource::kHello;
    config.hello.enabled = true;
    config.hello.dynamic = dhi;
  }

  const auto resolved = config.resolved();
  std::cout << "scheme=" << config.scheme.name() << " map=" << config.mapUnits
            << "x" << config.mapUnits << " hosts=" << resolved.numHosts
            << " speed=" << resolved.maxSpeedKmh << "km/h broadcasts="
            << config.numBroadcasts << " neighborInfo="
            << (resolved.neighborSource == experiment::NeighborSource::kHello
                    ? (dhi ? "hello+dhi" : "hello")
                    : "oracle")
            << " collisions=" << (config.collisions ? "on" : "off") << "\n\n";

  const auto r = experiment::runScenario(config);
  util::Table table({"metric", "value"});
  table.addRow({"RE (reachability)", util::fmt(r.re(), 4)});
  table.addRow({"SRB (saved rebroadcasts)", util::fmt(r.srb(), 4)});
  table.addRow({"avg latency (s)", util::fmt(r.latency(), 4)});
  table.addRow({"latency p50 / p95 (s)",
                util::fmt(r.summary.latencyP50Seconds, 4) + " / " +
                    util::fmt(r.summary.latencyP95Seconds, 4)});
  table.addRow({"mean delivery hops", util::fmt(r.summary.meanHops, 2)});
  table.addRow({"data frames sent",
                std::to_string(r.summary.dataFramesSent)});
  table.addRow({"hello frames sent", std::to_string(r.summary.hellosSent)});
  table.addRow({"frames corrupted (collisions)",
                std::to_string(r.framesCorrupted)});
  table.addRow({"simulated seconds", util::fmt(r.simulatedSeconds, 1)});
  table.print(std::cout);
  return 0;
}
