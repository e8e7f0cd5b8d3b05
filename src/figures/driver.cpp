#include <iostream>

#include "figures/figure.hpp"
#include "obs/report.hpp"
#include "util/env.hpp"

namespace manet::figures {
namespace {

void printBanner(std::ostream& out, const Figure& figure, const Scale& s) {
  out << "=== " << figure.title << " ===\n"
      << "Paper: " << figure.claim << "\n"
      << "Scale: " << s.broadcasts << " broadcasts/point x " << s.repetitions
      << " rep(s), " << s.numHosts << " hosts, seed " << s.seed
      << "  (env: REPRO_BROADCASTS REPRO_REPS REPRO_SEED REPRO_HOSTS; "
         "paper used 10,000 broadcasts)\n\n";
}

}  // namespace

Scale readScale(int defaultBroadcasts) {
  return {static_cast<int>(util::envInt("REPRO_BROADCASTS", defaultBroadcasts)),
          static_cast<int>(util::envInt("REPRO_REPS", 1)),
          static_cast<std::uint64_t>(util::envInt("REPRO_SEED", 42)),
          static_cast<int>(util::envInt("REPRO_HOSTS", 100))};
}

void applyScale(experiment::ScenarioConfig& config, const Scale& scale) {
  config.numBroadcasts = scale.broadcasts;
  config.seed = scale.seed;
  config.numHosts = scale.numHosts;
}

int benchMain(const std::function<int()>& body) {
  try {
    return body();
  } catch (const util::EnvError& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }
}

void runFigures(std::span<const Figure* const> figures, std::ostream& out,
                int threads, const std::string& json) {
  if (figures.empty()) return;
  std::vector<Scale> scales;
  for (const Figure* figure : figures) {
    scales.push_back(readScale(figure->defaultBroadcasts));
  }
  const auto dir = util::envString("MANET_BENCH_JSON");
  const bool report = !json.empty() || dir.has_value();
  if (report) obs::forceCollection(true);
  printBanner(out, *figures[0], scales[0]);

  std::vector<std::vector<std::string>> labels(figures.size());
  std::vector<experiment::ScenarioConfig> configs;
  for (std::size_t f = 0; f < figures.size(); ++f) {
    if (!figures[f]->cells) continue;
    for (Cell& cell : figures[f]->cells()) {
      applyScale(cell.config, scales[f]);
      labels[f].push_back(std::move(cell.label));
      configs.push_back(std::move(cell.config));
    }
  }
  // Every figure reads the same REPRO_REPS. Without cells there is no
  // fan-out, so MANET_THREADS goes unread.
  const auto results =
      configs.empty() ? std::vector<experiment::RunResult>{}
                      : experiment::runCells(configs,
                                             scales[0].repetitions, threads);

  std::size_t next = 0;
  for (std::size_t f = 0; f < figures.size(); ++f) {
    if (f > 0) printBanner(out, *figures[f], scales[f]);
    const Results mine = Results(results).subspan(next, labels[f].size());
    next += mine.size();
    figures[f]->print(mine, scales[f], out);
    if (!report || mine.empty()) continue;
    const std::string& name = figures[f]->name;
    const std::string path =
        json.empty() ? *dir + "/BENCH_" + name + ".json" : json;
    std::vector<obs::RunSample> samples;
    for (std::size_t c = 0; c < mine.size(); ++c) {
      samples.push_back(experiment::toRunSample(labels[f][c], mine[c]));
    }
    if (obs::writeReportFile(path, name, samples)) {
      std::cerr << "bench: wrote " << path << " (" << mine.size()
                << " rows)\n";
    }
  }
}

int figureMain(const Figure& figure, int argc, char** argv) {
  std::string json;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = argv[i + 1];
  }
  const Figure* const one[] = {&figure};
  return benchMain([&] {
    runFigures(one, std::cout, 0, json);
    return 0;
  });
}

const std::vector<int>& paperMapSizes() {
  static const std::vector<int> sizes{1, 3, 5, 7, 9, 11};
  return sizes;
}

std::string mapLabel(int units) {
  return std::to_string(units) + "x" + std::to_string(units);
}

std::vector<Cell> schemeByMap(
    const std::vector<experiment::SchemeSpec>& schemes,
    const std::vector<int>& maps) {
  std::vector<Cell> cells;
  for (int units : maps) {
    for (const experiment::SchemeSpec& scheme : schemes) {
      cells.push_back({mapLabel(units) + "/" + scheme.name(), {}});
      cells.back().config.mapUnits = units;
      cells.back().config.scheme = scheme;
    }
  }
  return cells;
}

void schemeMapTable(std::ostream& out, Results results, bool latency,
                    std::vector<std::string> prefixes) {
  const std::size_t perMap = results.size() / paperMapSizes().size();
  for (std::size_t s = prefixes.size(); s < perMap; ++s) {
    prefixes.push_back(results[s].schemeName + "_");
  }
  std::vector<std::string> header{"map"};
  for (const std::string& prefix : prefixes) {
    header.push_back(prefix + "RE");
    header.push_back(prefix + "SRB");
    if (latency) header.push_back(prefix + "lat(s)");
  }
  util::Table table(header);
  auto r = results.begin();
  for (int units : paperMapSizes()) {
    std::vector<std::string> row{mapLabel(units)};
    for (std::size_t s = 0; s < perMap; ++s, ++r) {
      row.push_back(util::fmt(r->re(), 3));
      row.push_back(util::fmt(r->srb(), 3));
      if (latency) row.push_back(util::fmt(r->latency(), 4));
    }
    table.addRow(std::move(row));
  }
  table.print(out);
  out << "\n";
}

}  // namespace manet::figures
