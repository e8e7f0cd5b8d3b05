// Fig. 5 (a-d) + Fig. 6: tuning the adaptive counter threshold C(n).
//
// Reproduces the paper's four-step tuning methodology (§4.1):
//   (a) slope before n1   - candidates 222333444555.., 22334455.., 23455..
//   (b) value of n1       - 233.., 2344.., 23455.., 234566..
//   (c) value of n2       - linear decay from C(4)=5 to 2 at n2 = 8, 12, 16
//   (d) decay shape       - linear / convex / concave / step between 4 and 12
// Each candidate is run across all six maps; RE and SRB are reported.
// Paper's conclusions: slope 1 (23455..) wins in sparse maps; n1 = 4;
// n2 = 12; and the linear decay (solid line of Fig. 6) is the suggestion.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/threshold.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

struct Candidate {
  std::string label;
  core::CounterThreshold fn;
};

struct Panel {
  std::string tag;
  std::string title;
  std::vector<Candidate> cands;
};

/// One cell per (map, candidate), in the order printPanel consumes them.
void addCells(const Panel& panel, const experiment::BenchScale& scale,
              std::vector<experiment::ScenarioConfig>& configs) {
  for (int units : experiment::paperMapSizes()) {
    for (const auto& cand : panel.cands) {
      experiment::ScenarioConfig config;
      config.mapUnits = units;
      config.scheme = experiment::SchemeSpec::adaptiveCounter(cand.fn,
                                                              cand.label);
      experiment::applyScale(config, scale);
      configs.push_back(config);
    }
  }
}

void printPanel(bench::Report& report, const Panel& panel,
                std::vector<experiment::RunResult>::const_iterator& r) {
  std::cout << "--- " << panel.title << " ---\n";
  std::vector<std::string> header{"map"};
  for (const auto& c : panel.cands) {
    header.push_back(c.label + "_RE");
    header.push_back(c.label + "_SRB");
  }
  util::Table table(header);
  for (int units : experiment::paperMapSizes()) {
    std::vector<std::string> row{bench::mapLabel(units)};
    for (const auto& cand : panel.cands) {
      report.add(panel.tag + "/" + cand.label + "/" + bench::mapLabel(units),
                 *r);
      row.push_back(util::fmt(r->re(), 3));
      row.push_back(util::fmt(r->srb(), 3));
      ++r;
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  bench::Report report(argc, argv, "fig05_tune_counter");
  const auto scale = experiment::benchScale(40);
  bench::banner("Fig. 5 - tuning C(n) for the adaptive counter scheme",
                "slope 1 best in sparse maps; n1=4, n2=12; linear decay",
                scale);

  using CT = core::CounterThreshold;

  const std::vector<Panel> panels{
      {"5a", "Fig. 5a: slope before n1",
       {{"s1/3", CT::fromDigits("22233344455555")},
        {"s1/2", CT::fromDigits("22334455555")},
        {"s1", CT::fromDigits("23455555")}}},
      {"5b", "Fig. 5b: choosing n1",
       {{"n1=2", CT::fromDigits("233")},
        {"n1=3", CT::fromDigits("2344")},
        {"n1=4", CT::fromDigits("23455")},
        {"n1=5", CT::fromDigits("234566")}}},
      {"5c", "Fig. 5c: choosing n2 (linear decay from 5 to 2)",
       {{"n2=8", CT::rampAndDecay(4, 8)},
        {"n2=12", CT::rampAndDecay(4, 12)},
        {"n2=16", CT::rampAndDecay(4, 16)}}},
      {"5d", "Fig. 5d: decay shape between n1=4 and n2=12",
       {{"linear", CT::rampAndDecay(4, 12, core::DecayShape::kLinear)},
        {"convex", CT::rampAndDecay(4, 12, core::DecayShape::kConvex)},
        {"concave", CT::rampAndDecay(4, 12, core::DecayShape::kConcave)},
        {"step", CT::rampAndDecay(4, 12, core::DecayShape::kStep)}}},
  };
  std::vector<experiment::ScenarioConfig> configs;
  for (const Panel& panel : panels) addCells(panel, scale, configs);
  const auto results = experiment::runCells(configs, scale.repetitions);
  auto r = results.cbegin();
  for (const Panel& panel : panels) printPanel(report, panel, r);

  // Fig. 6: the candidate functions themselves.
  std::cout << "--- Fig. 6: C(n) candidates (value per n) ---\n";
  util::Table fig6({"n", "linear(sugg.)", "convex", "concave", "step"});
  const auto lin = CT::suggested();
  const auto convex = CT::rampAndDecay(4, 12, core::DecayShape::kConvex);
  const auto concave = CT::rampAndDecay(4, 12, core::DecayShape::kConcave);
  const auto step = CT::rampAndDecay(4, 12, core::DecayShape::kStep);
  for (int n = 1; n <= 14; ++n) {
    fig6.addRow({std::to_string(n), std::to_string(lin(n)),
                 std::to_string(convex(n)), std::to_string(concave(n)),
                 std::to_string(step(n))});
  }
  fig6.print(std::cout);
  std::cout << "\nSuggested C(n) as digit sequence: " << lin.toDigits()
            << "\n\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return experiment::benchMain([&] { return run(argc, argv); });
}
