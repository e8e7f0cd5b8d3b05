// Ablation (not in the paper): the 0..31-slot pre-MAC jitter of scheme step
// S2. Without it, all receivers of a transmission contend for the medium at
// the same instant and — after a long-idle period — transmit simultaneously,
// so the collision rate explodes and RE drops. This justifies the jitter
// window the paper builds into every scheme.
#include "figures/figure.hpp"

namespace manet::figures {

constexpr int kMaps[] = {1, 5};
constexpr int kWindows[] = {0, 4, 16, 31, 64};

const Figure kJitter{
    "abl_jitter", "Ablation - S2 jitter window",
    "no jitter => synchronized rebroadcasts => collisions", 40,
    [] {
      std::vector<Cell> cells;
      for (int units : kMaps) {
        for (int w : kWindows) {
          Cell cell{mapLabel(units) + "/jitter=" + std::to_string(w), {}};
          cell.config.mapUnits = units;
          cell.config.scheme = experiment::SchemeSpec::flooding();
          cell.config.jitterSlots = w;
          cells.push_back(std::move(cell));
        }
      }
      return cells;
    },
    [](Results results, const Scale&, std::ostream& out) {
      auto r = results.begin();
      for (int units : kMaps) {
        out << "--- " << mapLabel(units) << " map, flooding ---\n";
        util::Table table(
            {"jitterSlots", "RE", "collision_frac", "latency(s)"});
        for (int w : kWindows) {
          const double total = static_cast<double>(r->framesDelivered +
                                                   r->framesCorrupted);
          const double collisionFrac =
              total > 0 ? static_cast<double>(r->framesCorrupted) / total
                        : 0.0;
          table.addRow({std::to_string(w), util::fmt(r->re(), 3),
                        util::fmt(collisionFrac, 3),
                        util::fmt(r->latency(), 4)});
          ++r;
        }
        table.print(out);
        out << "\n";
      }
    }};

}  // namespace manet::figures
