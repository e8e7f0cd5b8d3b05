// Figures as data (DESIGN.md §7.2). Each figure of the evaluation is one
// Figure record: its banner, its cells and how to print their results. One
// driver runs any list of them through a single runCells fan-out. Each
// bench/<figure> binary is a one-line main over its record, and bench/repro
// runs them all. Scale with REPRO_BROADCASTS / REPRO_REPS / REPRO_SEED /
// REPRO_HOSTS, e.g. REPRO_BROADCASTS=10000 REPRO_REPS=3 ./bench/repro.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "util/table.hpp"

namespace manet::figures {

struct Scale {
  int broadcasts;      // REPRO_BROADCASTS (paper: 10,000)
  int repetitions;     // REPRO_REPS: seeds averaged per data point
  std::uint64_t seed;  // REPRO_SEED
  int numHosts;        // REPRO_HOSTS (paper: 100)
};

/// One run of a figure, before scaling. The label keys its report row, so
/// it is unique within the figure (tools/compare_bench.py joins on it).
struct Cell {
  std::string label;
  experiment::ScenarioConfig config;
};

using Results = std::span<const experiment::RunResult>;

struct Figure {
  std::string name;       // the binary; its report is BENCH_<name>.json
  std::string title;      // banner heading
  std::string claim;      // what the paper shows
  int defaultBroadcasts;  // REPRO_BROADCASTS when unset
  /// The cells in print order. Null for Figs. 1-2 (Monte Carlo) and
  /// ext_density, which do their work in `print`.
  std::function<std::vector<Cell>()> cells;
  /// Prints the tables from the cells' results, in cell order.
  std::function<void(Results, const Scale&, std::ostream&)> print;
};

/// One translation unit each, so a figure binary links only its own.
extern const Figure kFig01, kFig02, kFig05, kFig07, kFig09, kFig10, kFig11,
    kFig12, kFig13, kJitter, kCollisions, kDensity;

/// All of the above in README-table order (a translation unit of its own).
std::span<const Figure* const> registeredFigures();

/// Reads REPRO_*; only the broadcast count has a per-figure default.
Scale readScale(int defaultBroadcasts);
void applyScale(experiment::ScenarioConfig& config, const Scale& scale);

/// Returns what `body` returns, or 2 when a knob read during it (on any
/// runCells worker too) is malformed: the util::EnvError message goes to
/// stderr instead of ending the process through std::terminate.
int benchMain(const std::function<int()>& body);

/// Prints each figure's banner and tables to `out`, in order, running the
/// cells of all of them through one runCells call on `threads` workers
/// (0 = MANET_THREADS). The first banner goes out before any cell is built.
/// A figure with cells writes its report to `json` if given, else to
/// MANET_BENCH_JSON/BENCH_<name>.json if that is set; stdout is unchanged.
void runFigures(std::span<const Figure* const> figures, std::ostream& out,
                int threads = 0, const std::string& json = {});

/// A figure binary's main: runFigures on std::cout through benchMain, with
/// `--json <path>` naming the report file.
int figureMain(const Figure& figure, int argc, char** argv);

/// The paper's map-size sweep {1,3,5,7,9,11}, and "5x5" for a 5-unit map.
const std::vector<int>& paperMapSizes();
std::string mapLabel(int units);

/// One cell per (map, scheme), map-major, labelled "<map>/<scheme>".
std::vector<Cell> schemeByMap(
    const std::vector<experiment::SchemeSpec>& schemes,
    const std::vector<int>& maps = paperMapSizes());

/// The table of schemeByMap results over the paper's maps: a row per map
/// and, per scheme, the columns <prefix>RE, <prefix>SRB and, with
/// `latency`, <prefix>lat(s). The prefixes default to "<scheme>_".
void schemeMapTable(std::ostream& out, Results results, bool latency,
                    std::vector<std::string> prefixes = {});

}  // namespace manet::figures
