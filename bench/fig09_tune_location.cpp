// Fig. 8 + Fig. 9: tuning the adaptive location threshold A(n).
//
// Fig. 8 defines the candidate functions: A(n) = 0 up to n1, linear to
// 0.187 at n2, constant after. Fig. 9 compares the (n1, n2) candidates
// across maps; the paper picks (6, 12) after weighing RE against SRB
// ((8,12) and (8,10) have comparable RE but worse SRB in sparse maps).
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/threshold.hpp"
#include "experiment/runner.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

int run() {
  const auto scale = experiment::benchScale(60);
  bench::banner("Fig. 9 - tuning A(n) for the adaptive location scheme",
                "(6,12), (8,12), (8,10) all give high RE; (6,12) wins on SRB",
                scale);

  const std::vector<std::pair<int, int>> candidates{
      {2, 8}, {4, 8}, {4, 10}, {6, 10}, {6, 12}, {8, 12}, {8, 10}, {2, 16}};

  // Fig. 8: print the candidate functions.
  std::cout << "--- Fig. 8: A(n) candidates ---\n";
  {
    std::vector<std::string> header{"n"};
    for (auto [n1, n2] : candidates) {
      header.push_back("(" + std::to_string(n1) + "," + std::to_string(n2) +
                       ")");
    }
    util::Table fig8(header);
    for (int n = 0; n <= 16; n += 2) {
      std::vector<std::string> row{std::to_string(n)};
      for (auto [n1, n2] : candidates) {
        row.push_back(util::fmt(core::AreaThreshold::piecewise(n1, n2)(n), 3));
      }
      fig8.addRow(std::move(row));
    }
    fig8.print(std::cout);
  }
  std::cout << "\n--- Fig. 9: RE / SRB per candidate per map ---\n";

  std::vector<std::string> header{"map"};
  for (auto [n1, n2] : candidates) {
    const std::string tag =
        std::to_string(n1) + "," + std::to_string(n2);
    header.push_back("(" + tag + ")RE");
    header.push_back("(" + tag + ")SRB");
  }
  std::vector<experiment::ScenarioConfig> configs;
  for (int units : experiment::paperMapSizes()) {
    for (auto [n1, n2] : candidates) {
      experiment::ScenarioConfig config;
      config.mapUnits = units;
      config.scheme = experiment::SchemeSpec::adaptiveLocation(
          core::AreaThreshold::piecewise(n1, n2),
          "AL(" + std::to_string(n1) + "," + std::to_string(n2) + ")");
      experiment::applyScale(config, scale);
      configs.push_back(config);
    }
  }
  const auto results = experiment::runCells(configs, scale.repetitions);

  util::Table table(header);
  auto r = results.begin();
  for (int units : experiment::paperMapSizes()) {
    std::vector<std::string> row{bench::mapLabel(units)};
    for (std::size_t c = 0; c < candidates.size(); ++c, ++r) {
      row.push_back(util::fmt(r->re(), 3));
      row.push_back(util::fmt(r->srb(), 3));
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main() { return experiment::benchMain(run); }
