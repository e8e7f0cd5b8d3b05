// Fig. 13: overall comparison per map (a-f = 1x1 .. 11x11): flooding,
// C=2, C=6, AC, A=0.1871, A=0.0134, AL, and NC with dynamic hello interval
// (NC-DHI). Each cell is an (SRB, RE) point; the paper plots them as a
// scatter where upper-right is best.
// Paper's shape: flooding only competitive on mid-density maps; NC-DHI best
// in dense maps; AC/AL best in sparse maps; adaptive schemes hold RE >= 95%
// everywhere.
#include "figures/figure.hpp"

namespace manet::figures {

using experiment::SchemeSpec;

const Figure kFig13{
    "fig13_overall", "Fig. 13 - overall comparison (one table per map)",
    "adaptive schemes keep RE >= ~95% at every density", 60,
    [] {
      SchemeSpec ncDhi = SchemeSpec::neighborCoverage();
      ncDhi.label = "NC-DHI";
      auto cells = schemeByMap(
          {SchemeSpec::flooding(), SchemeSpec::counter(2),
           SchemeSpec::counter(6), SchemeSpec::adaptiveCounter(),
           SchemeSpec::location(0.1871), SchemeSpec::location(0.0134),
           SchemeSpec::adaptiveLocation(), ncDhi});
      for (Cell& cell : cells) {
        if (cell.config.scheme.needsTwoHopInfo()) {
          cell.config.neighborSource = experiment::NeighborSource::kHello;
          cell.config.hello.dynamic = true;
        }
      }
      return cells;
    },
    [](Results results, const Scale&, std::ostream& out) {
      const std::size_t perMap = results.size() / paperMapSizes().size();
      auto r = results.begin();
      for (int units : paperMapSizes()) {
        out << "--- " << mapLabel(units) << " map (max speed " << 10 * units
            << " km/h) ---\n";
        util::Table table({"scheme", "SRB", "RE", "latency(s)"});
        for (std::size_t s = 0; s < perMap; ++s, ++r) {
          table.addRow({r->schemeName, util::fmt(r->srb(), 3),
                        util::fmt(r->re(), 3), util::fmt(r->latency(), 4)});
        }
        table.print(out);
        out << "\n";
      }
    }};

}  // namespace manet::figures
