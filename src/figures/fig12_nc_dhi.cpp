// Fig. 12: the neighbor-coverage scheme with the dynamic hello interval
// (nv_max = 0.02, hi in [1 s, 10 s]) across maps and host speeds.
//   (a) RE and SRB stay high regardless of speed and density;
//   (b) hello traffic adapts: sparse maps (high variation) pick ~hi_min,
//       the 1x1 map (no variation) sits near hi_max.
#include "figures/figure.hpp"

namespace manet::figures {

constexpr int kMaps[] = {1, 3, 5, 9, 11};
constexpr double kSpeeds[] = {20.0, 40.0, 60.0, 80.0};

const Figure kFig12{
    "fig12_nc_dhi", "Fig. 12 - NC with dynamic hello interval (DHI)",
    "RE stays high at all speeds/densities; hello rate adapts", 40,
    [] {
      std::vector<Cell> cells;
      for (double speed : kSpeeds) {
        for (int units : kMaps) {
          Cell cell{mapLabel(units) + "/" + util::fmt(speed, 0) + "kmh", {}};
          cell.config.mapUnits = units;
          cell.config.maxSpeedKmh = speed;
          cell.config.scheme = experiment::SchemeSpec::neighborCoverage();
          cell.config.neighborSource = experiment::NeighborSource::kHello;
          cell.config.hello.dynamic = true;  // nvMax = 0.02, [1 s, 10 s]
          cells.push_back(std::move(cell));
        }
      }
      return cells;
    },
    [](Results results, const Scale&, std::ostream& out) {
      out << "--- Fig. 12a: RE (top) and SRB (bottom) ---\n"
          << "--- Fig. 12b companion: hello packets per host per second "
             "---\n";
      std::vector<std::string> header{"speed(km/h)"};
      for (int units : kMaps) header.push_back(mapLabel(units));
      util::Table re(header), srb(header), rate(header);
      auto r = results.begin();
      for (double speed : kSpeeds) {
        std::vector<std::string> reRow{util::fmt(speed, 0)};
        std::vector<std::string> srbRow = reRow, rateRow = reRow;
        for (std::size_t m = 0; m < std::size(kMaps); ++m, ++r) {
          reRow.push_back(util::fmt(r->re(), 3));
          srbRow.push_back(util::fmt(r->srb(), 3));
          rateRow.push_back(util::fmt(r->hellosPerHostPerSecond, 3));
        }
        re.addRow(std::move(reRow));
        srb.addRow(std::move(srbRow));
        rate.addRow(std::move(rateRow));
      }
      out << "RE:\n";
      re.print(out);
      out << "\nSRB:\n";
      srb.print(out);
      out << "\nHello rate (pkts/host/s; 1.0 = hi_min, 0.1 = hi_max):\n";
      rate.print(out);
      out << "\n";
    }};

}  // namespace manet::figures
