// Fig. 1: expected additional coverage EAC(k)/(pi r^2) after a host heard
// the same broadcast packet k times. Paper's shape: ~0.41 at k=1, below 5%
// for k >= 4.
#include "figures/figure.hpp"
#include "geom/coverage.hpp"
#include "sim/random.hpp"
#include "util/env.hpp"

namespace manet::figures {

const Figure kFig01{
    "fig01_eac", "Fig. 1 - EAC(k)", "EAC(1) ~ 0.41; EAC(k) < 5% once k >= 4",
    60, nullptr, [](Results, const Scale& scale, std::ostream& out) {
      const int trials =
          static_cast<int>(util::envInt("REPRO_MC_TRIALS", 4000));
      const int samples =
          static_cast<int>(util::envInt("REPRO_MC_SAMPLES", 1024));
      sim::Rng rng(scale.seed);
      const auto series = geom::eacSeries(10, 500.0, rng, trials, samples);

      util::Table table({"k", "EAC(k)/pi*r^2", "percent"});
      for (std::size_t k = 0; k < series.size(); ++k) {
        table.addRow({std::to_string(k + 1), util::fmt(series[k], 4),
                      util::fmtPercent(series[k], 1)});
      }
      table.print(out);
      out << "\n";
    }};

}  // namespace manet::figures
