// Extension (not a paper figure): broadcast storm schemes under injected
// faults. Three panels on the paper's 5x5 / 100-host setup:
//
//   1. i.i.d. link loss, PER in {0, 0.05, 0.1, 0.2, 0.4}: how fast each
//      scheme's RE degrades as receptions start failing. Flooding's
//      redundancy buys loss tolerance — every extra rebroadcast is another
//      independent delivery attempt — so its RE falls more slowly than the
//      counter-based schemes that deliberately suppress that redundancy.
//   2. Gilbert-Elliott bursty loss vs. i.i.d. at the same long-run average
//      loss rate: burstiness concentrates failures on links, which hurts
//      sparse schemes more than the i.i.d. equivalent.
//   3. Host churn (random crash/recover cycles) at increasing intensity,
//      with HELLO-derived neighborhoods: crashed hosts take their coverage
//      knowledge down with them, and recovered hosts rejoin with cold
//      neighbor tables.
//
// All fault draws come from dedicated RNG streams, so the PER=0 / no-churn
// rows are bit-identical to the fault-free benches.
#include <iostream>
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

experiment::SweepAxis perAxis(const std::vector<double>& pers) {
  experiment::SweepAxis axis;
  axis.name = "PER";
  for (double per : pers) {
    axis.values.push_back({util::fmt(per, 2), [per](
                                                  experiment::ScenarioConfig&
                                                      c) {
                             c.fault.loss =
                                 per > 0.0
                                     ? fault::FaultConfig::Loss::kIid
                                     : fault::FaultConfig::Loss::kNone;
                             c.fault.per = per;
                           }});
  }
  return axis;
}

experiment::SweepAxis burstAxis() {
  experiment::SweepAxis axis;
  axis.name = "loss model";
  axis.values.push_back(
      {"none", [](experiment::ScenarioConfig& c) {
         c.fault.loss = fault::FaultConfig::Loss::kNone;
       }});
  // GE defaults: stationary Bad share 0.085/(0.085+0.25) ~ 0.25, loss 0.75
  // in Bad -> ~19% average loss in bursts of mean length 4.
  axis.values.push_back(
      {"ge(avg~0.19)", [](experiment::ScenarioConfig& c) {
         c.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
       }});
  axis.values.push_back(
      {"iid(0.19)", [](experiment::ScenarioConfig& c) {
         c.fault.loss = fault::FaultConfig::Loss::kIid;
         c.fault.per = 0.19;
       }});
  return axis;
}

experiment::SweepAxis churnAxis() {
  experiment::SweepAxis axis;
  axis.name = "churn";
  struct Level {
    const char* label;
    double fraction;  // <= 0: churn off
  };
  for (const Level& level : {Level{"off", 0.0}, Level{"mild", 0.2},
                             Level{"heavy", 0.5}}) {
    const double fraction = level.fraction;
    axis.values.push_back({level.label, [fraction](
                                            experiment::ScenarioConfig& c) {
                             c.fault.churn = fraction > 0.0;
                             c.fault.churnFraction = fraction;
                             c.fault.meanUpTime = 15 * sim::kSecond;
                             c.fault.meanDownTime = 5 * sim::kSecond;
                           }});
  }
  return axis;
}

void printPanel(const char* title, const experiment::ScenarioConfig& base,
                const std::vector<experiment::SweepAxis>& axes,
                const experiment::BenchScale& scale, bench::Report& report,
                const std::string& labelPrefix) {
  std::cout << "--- " << title << " ---\n";
  const auto cells =
      experiment::runSweep(base, axes, scale.repetitions, /*threads=*/0);
  for (const auto& cell : cells) {
    std::string label = labelPrefix;
    for (const auto& coordinate : cell.coordinates) label += "/" + coordinate;
    report.add(label, cell.result);
  }
  experiment::sweepTable(axes, cells).print(std::cout);
  std::cout << "\n";
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  bench::Report report(argc, argv, "ext_fault");
  const auto scale = experiment::benchScale(20);
  bench::banner(
      "Extension - fault injection (link loss + host churn)",
      "redundancy tolerates faults: suppression trades robustness for "
      "efficiency",
      scale);
  const experiment::ScenarioConfig base = baseConfig(scale);

  {
    std::vector<experiment::SweepAxis> axes{
        perAxis({0.0, 0.05, 0.1, 0.2, 0.4}), schemePanel()};
    printPanel("i.i.d. link loss", base, axes, scale, report, "iid");
  }
  {
    std::vector<experiment::SweepAxis> axes{burstAxis(), schemePanel()};
    printPanel("bursty (Gilbert-Elliott) vs i.i.d. loss", base, axes, scale,
               report, "burst");
  }
  {
    experiment::ScenarioConfig churnBase = base;
    // Churn studies use HELLO-derived neighborhoods: the oracle would hand
    // recovered hosts perfect knowledge the protocol cannot actually have.
    churnBase.neighborSource = experiment::NeighborSource::kHello;
    churnBase.hello.enabled = true;
    std::vector<experiment::SweepAxis> axes{churnAxis(), schemePanel()};
    printPanel("host churn (HELLO neighborhoods)", churnBase, axes, scale,
               report, "churn");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return experiment::benchMain([&] { return run(argc, argv); });
}
