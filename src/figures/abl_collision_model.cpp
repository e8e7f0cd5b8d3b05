// Ablation (supports the §4.4 claim): "The main reason for a lot of hosts
// missing the broadcast message is collision." Rerun flooding and the
// adaptive schemes with a perfect PHY (no collisions): flooding's RE becomes
// ~1.0 everywhere, showing the storm's damage is collision-induced — and
// showing the suppression schemes' RE advantage over flooding disappears
// while their SRB advantage remains.
#include "figures/figure.hpp"

namespace manet::figures {

const std::vector<int> kMaps{1, 3, 5};

using experiment::SchemeSpec;

const Figure kCollisions{
    "abl_collision_model", "Ablation - collision model on/off",
    "flooding's RE loss is collision-induced (paper §4.4)", 40,
    [] {
      // Per (map, scheme): the real PHY, then the collision-free one.
      std::vector<Cell> cells;
      for (Cell& real : schemeByMap({SchemeSpec::flooding(),
                                     SchemeSpec::counter(2),
                                     SchemeSpec::adaptiveCounter()},
                                    kMaps)) {
        Cell perfect{real.label + "/perfect", real.config};
        perfect.config.collisions = false;
        real.label += "/real";
        cells.push_back(std::move(real));
        cells.push_back(std::move(perfect));
      }
      return cells;
    },
    [](Results results, const Scale&, std::ostream& out) {
      const std::size_t perMap = results.size() / kMaps.size();
      auto r = results.begin();
      for (int units : kMaps) {
        out << "--- " << mapLabel(units) << " map ---\n";
        util::Table table({"scheme", "RE(real PHY)", "RE(perfect PHY)",
                           "SRB(real)", "SRB(perfect)"});
        for (std::size_t c = 0; c < perMap; c += 2) {
          const auto& rReal = *r++;
          const auto& rPerfect = *r++;
          table.addRow({rReal.schemeName, util::fmt(rReal.re(), 3),
                        util::fmt(rPerfect.re(), 3), util::fmt(rReal.srb(), 3),
                        util::fmt(rPerfect.srb(), 3)});
        }
        table.print(out);
        out << "\n";
      }
    }};

}  // namespace manet::figures
