// Extension (not a paper figure): offered-load saturation sweep. The paper
// evaluates every scheme under one fixed workload (U(0, 2 s) interarrivals
// from uniform sources, ~0.5 broadcasts/s); broadcast-storm severity is
// fundamentally a function of offered load, so this bench asks the question
// the paper cannot: at what load does each scheme's reachability collapse?
//
// Three panels on the 5x5 / 100-host setup (DESIGN.md §12):
//
//   1. Saturation: Poisson arrivals at rates spanning ~two orders of
//      magnitude x scheme. Flooding's per-broadcast redundancy multiplies
//      the channel load, so its RE knee arrives at a much lower offered
//      rate than the suppressive schemes — the storm eating its own
//      deliveries. The "offered/s" column is the realized x-axis.
//   2. Burstiness at matched mean load: uniform vs Poisson vs CBR vs on/off
//      bursts, all ~1 request/s. Bursts pile requests into the contention
//      window that an average-rate metric hides.
//   3. Source locality at the default load: uniform sources vs hotspot-k vs
//      one zone quadrant. Concentrated sources collide in one neighborhood
//      instead of spreading the load across the map.
//
// The workload generator draws from the same dedicated stream the default
// model uses, so the uniform/uniform rows reproduce the fault-free figures'
// numbers exactly.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

experiment::ScenarioConfig baseConfig(const experiment::BenchScale& scale) {
  experiment::ScenarioConfig config;
  config.mapUnits = 5;
  experiment::applyScale(config, scale);
  return config;
}

experiment::SweepAxis schemePanel() {
  return experiment::schemeAxis({
      experiment::SchemeSpec::flooding(),
      experiment::SchemeSpec::counter(3),
      experiment::SchemeSpec::adaptiveCounter(),
      experiment::SchemeSpec::adaptiveLocation(),
      experiment::SchemeSpec::neighborCoverage(),
  });
}

experiment::SweepAxis rateAxis(const std::vector<double>& rates) {
  experiment::SweepAxis axis;
  axis.name = "req/s";
  for (double rate : rates) {
    axis.values.push_back(
        {util::fmt(rate, 1), [rate](experiment::ScenarioConfig& c) {
           c.traffic.arrival = traffic::TrafficConfig::Arrival::kPoisson;
           c.traffic.poissonRatePerSecond = rate;
         }});
  }
  return axis;
}

experiment::SweepAxis burstinessAxis() {
  experiment::SweepAxis axis;
  axis.name = "arrivals";
  axis.values.push_back(
      {"uniform", [](experiment::ScenarioConfig& c) {
         c.traffic.arrival = traffic::TrafficConfig::Arrival::kUniform;
         c.interarrivalMax = 2 * sim::kSecond;  // mean gap 1 s
       }});
  axis.values.push_back(
      {"poisson", [](experiment::ScenarioConfig& c) {
         c.traffic.arrival = traffic::TrafficConfig::Arrival::kPoisson;
         c.traffic.poissonRatePerSecond = 1.0;
       }});
  axis.values.push_back(
      {"cbr", [](experiment::ScenarioConfig& c) {
         c.traffic.arrival = traffic::TrafficConfig::Arrival::kPeriodic;
         c.traffic.period = sim::kSecond;
       }});
  // Mean rate ~1/s: 8 requests per burst, ~0.175 s of intra-burst gaps
  // (7 x U(0, 50 ms)) + 7.8 s mean idle ~= 8 s per burst cycle.
  axis.values.push_back(
      {"burst(8)", [](experiment::ScenarioConfig& c) {
         c.traffic.arrival = traffic::TrafficConfig::Arrival::kBurst;
         c.traffic.burstLength = 8;
         c.traffic.burstGapMax = 50 * sim::kMillisecond;
         c.traffic.burstIdleMean = sim::scaleTrunc(sim::kSecond, 7.8);
       }});
  return axis;
}

experiment::SweepAxis localityAxis() {
  experiment::SweepAxis axis;
  axis.name = "sources";
  axis.values.push_back(
      {"uniform", [](experiment::ScenarioConfig& c) {
         c.traffic.sources = traffic::TrafficConfig::Sources::kUniform;
       }});
  for (int k : {3, 1}) {
    axis.values.push_back(
        {"hotspot-" + std::to_string(k),
         [k](experiment::ScenarioConfig& c) {
           c.traffic.sources = traffic::TrafficConfig::Sources::kHotspot;
           c.traffic.hotspotCount = k;
         }});
  }
  axis.values.push_back(
      {"zone-quadrant", [](experiment::ScenarioConfig& c) {
         c.traffic.sources = traffic::TrafficConfig::Sources::kZone;
         // Defaults: lower-left quadrant of the map.
       }});
  return axis;
}

/// Prints one panel with the realized offered rate alongside the paper
/// metrics, and records every cell into the run report.
void runPanel(const char* title, const experiment::ScenarioConfig& base,
              const std::vector<experiment::SweepAxis>& axes,
              const experiment::BenchScale& scale, bench::Report& report,
              const std::string& labelPrefix) {
  std::cout << "--- " << title << " ---\n";
  const auto cells =
      experiment::runSweep(base, axes, scale.repetitions, /*threads=*/0);

  std::vector<std::string> header;
  for (const auto& axis : axes) header.push_back(axis.name);
  header.insert(header.end(), {"offered/s", "RE", "SRB", "latency(s)"});
  util::Table table(header);
  for (const auto& cell : cells) {
    std::vector<std::string> row = cell.coordinates;
    row.push_back(util::fmt(cell.result.offeredPerSecond(), 2));
    row.push_back(util::fmt(cell.result.re(), 3));
    row.push_back(util::fmt(cell.result.srb(), 3));
    row.push_back(util::fmt(cell.result.latency(), 4));
    table.addRow(std::move(row));

    std::string label = labelPrefix;
    for (const auto& coordinate : cell.coordinates) {
      label += "/" + coordinate;
    }
    report.add(label, cell.result);
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  bench::Report report(argc, argv, "ext_load");
  const auto scale = experiment::benchScale(20);
  bench::banner(
      "Extension - offered-load saturation sweep",
      "suppression moves the reachability knee to higher offered load",
      scale);
  const experiment::ScenarioConfig base = baseConfig(scale);

  {
    std::vector<experiment::SweepAxis> axes{
        rateAxis({0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}), schemePanel()};
    runPanel("saturation (Poisson arrivals)", base, axes, scale, report,
             "saturation");
  }
  {
    std::vector<experiment::SweepAxis> axes{burstinessAxis(), schemePanel()};
    runPanel("burstiness at ~1 req/s mean", base, axes, scale, report,
             "burstiness");
  }
  {
    std::vector<experiment::SweepAxis> axes{localityAxis(), schemePanel()};
    runPanel("source locality (default load)", base, axes, scale, report,
             "locality");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return experiment::benchMain([&] { return run(argc, argv); });
}
