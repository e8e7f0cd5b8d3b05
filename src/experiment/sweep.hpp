// Cartesian parameter sweeps: run a scenario across schemes x maps x speeds
// (or any custom axis) and collect results in one table, optionally as CSV.
// The figure benches build their own cell lists to match the paper's exact
// panels and hand them to runCells; a sweep is the same fan-out over a
// cartesian product.
//
// Execution is runCells (runner.hpp): parallel by default (threads = 0
// resolves via MANET_THREADS / hardware concurrency), every (cell,
// repetition) pair an independent job, results in cell order — so the sweep
// output is identical for any thread count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "util/table.hpp"

namespace manet::experiment {

/// One sweep axis: a label plus a config mutation per value.
struct SweepAxis {
  std::string name;
  struct Value {
    std::string label;
    std::function<void(ScenarioConfig&)> apply;
  };
  std::vector<Value> values;
};

/// Builders for the common axes.
SweepAxis schemeAxis(std::vector<SchemeSpec> schemes);
SweepAxis mapAxis(std::vector<int> mapUnits);
SweepAxis speedAxis(std::vector<double> kmh);
SweepAxis seedAxis(std::vector<std::uint64_t> seeds);

/// Result of one sweep cell.
struct SweepCell {
  std::vector<std::string> coordinates;  // one label per axis, in order
  RunResult result;
};

/// Runs the cartesian product of all axes over `base` (axes applied in
/// order, so later axes win on conflicting fields). `repetitions` averages
/// each cell over consecutive seeds. `threads`: 0 = auto, 1 = serial.
std::vector<SweepCell> runSweep(const ScenarioConfig& base,
                                const std::vector<SweepAxis>& axes,
                                int repetitions = 1, int threads = 0);

/// Formats sweep results as an aligned table with one row per cell and
/// columns: axes..., RE, SRB, latency(s), hello/host/s.
util::Table sweepTable(const std::vector<SweepAxis>& axes,
                       const std::vector<SweepCell>& cells);

}  // namespace manet::experiment
