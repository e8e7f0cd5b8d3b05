// Fig. 11: the neighbor-coverage scheme's RE under different (fixed) hello
// intervals {1, 5, 10, 20, 30 s} and host speeds {20, 40, 60, 80 km/h} on
// maps 5x5 / 7x7 / 9x9 / 11x11.
// Paper's shape: long intervals degrade RE badly on sparse maps, and worse
// at higher speed; on small maps mobility barely matters.
#include "figures/figure.hpp"

namespace manet::figures {

constexpr int kMaps[] = {5, 7, 9, 11};
constexpr double kSpeeds[] = {20.0, 40.0, 60.0, 80.0};
constexpr int kIntervalsSeconds[] = {1, 5, 10, 20, 30};

const Figure kFig11{
    "fig11_hello_interval", "Fig. 11 - NC scheme vs hello interval and speed",
    "stale tables (long interval x fast hosts) hurt RE on sparse maps", 40,
    [] {
      std::vector<Cell> cells;
      for (int units : kMaps) {
        for (double speed : kSpeeds) {
          for (int hi : kIntervalsSeconds) {
            Cell cell{mapLabel(units) + "/hi=" + std::to_string(hi) + "s/" +
                          util::fmt(speed, 0) + "kmh",
                      {}};
            cell.config.mapUnits = units;
            cell.config.maxSpeedKmh = speed;
            cell.config.scheme = experiment::SchemeSpec::neighborCoverage();
            cell.config.neighborSource = experiment::NeighborSource::kHello;
            cell.config.hello.interval = hi * sim::kSecond;
            cells.push_back(std::move(cell));
          }
        }
      }
      return cells;
    },
    [](Results results, const Scale&, std::ostream& out) {
      auto r = results.begin();
      for (int units : kMaps) {
        out << "--- " << mapLabel(units) << " map: RE ---\n";
        std::vector<std::string> header{"speed(km/h)"};
        for (int hi : kIntervalsSeconds) {
          header.push_back("hi=" + std::to_string(hi) + "s");
        }
        util::Table table(header);
        for (double speed : kSpeeds) {
          std::vector<std::string> row{util::fmt(speed, 0)};
          for (std::size_t i = 0; i < std::size(kIntervalsSeconds); ++i, ++r) {
            row.push_back(util::fmt(r->re(), 3));
          }
          table.addRow(std::move(row));
        }
        table.print(out);
        out << "\n";
      }
    }};

}  // namespace manet::figures
