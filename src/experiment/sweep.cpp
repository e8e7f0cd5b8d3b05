#include "experiment/sweep.hpp"

#include "util/assert.hpp"

namespace manet::experiment {

SweepAxis schemeAxis(std::vector<SchemeSpec> schemes) {
  SweepAxis axis;
  axis.name = "scheme";
  for (auto& scheme : schemes) {
    const std::string label = scheme.name();
    axis.values.push_back({label, [scheme](ScenarioConfig& c) {
                             c.scheme = scheme;
                           }});
  }
  return axis;
}

SweepAxis mapAxis(std::vector<int> mapUnits) {
  SweepAxis axis;
  axis.name = "map";
  for (int units : mapUnits) {
    axis.values.push_back(
        {std::to_string(units) + "x" + std::to_string(units),
         [units](ScenarioConfig& c) { c.mapUnits = units; }});
  }
  return axis;
}

SweepAxis speedAxis(std::vector<double> kmh) {
  SweepAxis axis;
  axis.name = "speed(km/h)";
  for (double v : kmh) {
    axis.values.push_back({util::fmt(v, 0), [v](ScenarioConfig& c) {
                             c.maxSpeedKmh = v;
                           }});
  }
  return axis;
}

SweepAxis seedAxis(std::vector<std::uint64_t> seeds) {
  SweepAxis axis;
  axis.name = "seed";
  for (std::uint64_t s : seeds) {
    axis.values.push_back({std::to_string(s), [s](ScenarioConfig& c) {
                             c.seed = s;
                           }});
  }
  return axis;
}

namespace {

/// One cell of the cartesian product before execution: its coordinate labels
/// and the axis values to apply (borrowed from `axes`, one per axis).
struct CellSpec {
  std::vector<std::string> coordinates;
  std::vector<const SweepAxis::Value*> values;
};

/// Enumerates the cartesian product in the serial order (inner axis varies
/// fastest) without copying any ScenarioConfig: each cell later applies its
/// value chain onto a single fresh copy of the base config.
std::vector<CellSpec> materializeCells(const std::vector<SweepAxis>& axes) {
  std::vector<CellSpec> cells;
  std::size_t total = 1;
  for (const auto& axis : axes) total *= axis.values.size();
  cells.reserve(total);

  CellSpec current;
  current.coordinates.reserve(axes.size());
  current.values.reserve(axes.size());
  const std::function<void(std::size_t)> recurse = [&](std::size_t depth) {
    if (depth == axes.size()) {
      cells.push_back(current);
      return;
    }
    for (const auto& value : axes[depth].values) {
      current.coordinates.push_back(value.label);
      current.values.push_back(&value);
      recurse(depth + 1);
      current.coordinates.pop_back();
      current.values.pop_back();
    }
  };
  recurse(0);
  return cells;
}

ScenarioConfig cellConfig(const ScenarioConfig& base, const CellSpec& cell) {
  ScenarioConfig config = base;
  for (const SweepAxis::Value* value : cell.values) value->apply(config);
  return config;
}

}  // namespace

std::vector<SweepCell> runSweep(const ScenarioConfig& base,
                                const std::vector<SweepAxis>& axes,
                                int repetitions, int threads) {
  for (const auto& axis : axes) MANET_EXPECTS(!axis.values.empty());

  const std::vector<CellSpec> cells = materializeCells(axes);
  std::vector<ScenarioConfig> configs;
  configs.reserve(cells.size());
  for (const CellSpec& cell : cells) configs.push_back(cellConfig(base, cell));
  std::vector<RunResult> results = runCells(configs, repetitions, threads);

  std::vector<SweepCell> out;
  out.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.push_back({cells[i].coordinates, std::move(results[i])});
  }
  return out;
}

util::Table sweepTable(const std::vector<SweepAxis>& axes,
                       const std::vector<SweepCell>& cells) {
  // Fault columns appear only when some cell actually ran with faults, so
  // the golden fault-free tables are byte-identical to before the fault
  // subsystem existed.
  bool anyFaults = false;
  for (const auto& cell : cells) anyFaults |= cell.result.faultsEnabled;

  std::vector<std::string> header;
  for (const auto& axis : axes) header.push_back(axis.name);
  header.insert(header.end(),
                {"RE", "SRB", "latency(s)", "hello/host/s"});
  if (anyFaults) {
    header.insert(header.end(), {"lost", "down-drop", "down(s)"});
  }
  util::Table table(header);
  for (const auto& cell : cells) {
    std::vector<std::string> row = cell.coordinates;
    row.push_back(util::fmt(cell.result.re(), 3));
    row.push_back(util::fmt(cell.result.srb(), 3));
    row.push_back(util::fmt(cell.result.latency(), 4));
    row.push_back(util::fmt(cell.result.hellosPerHostPerSecond, 2));
    if (anyFaults) {
      row.push_back(std::to_string(cell.result.framesLostToFault));
      row.push_back(std::to_string(cell.result.framesDroppedHostDown));
      row.push_back(util::fmt(cell.result.hostDownSeconds, 1));
    }
    table.addRow(std::move(row));
  }
  return table;
}

}  // namespace manet::experiment
