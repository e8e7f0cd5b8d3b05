// Fig. 10: adaptive location-based scheme AL(6,12) vs the fixed thresholds
// of Ni et al. [15]: A in {0.1871, 0.0469, 0.0134}.
//   (a) RE and SRB    (b) average broadcast latency.
// Paper's shape: fixed A loses RE on sparse maps (badly for large A); AL
// holds RE high everywhere without giving up SRB.
#include "figures/figure.hpp"

namespace manet::figures {

using experiment::SchemeSpec;

const Figure kFig10{
    "fig10_al_vs_fixed", "Fig. 10 - AL vs fixed location thresholds",
    "fixed A degrades in sparse maps; AL does not", 60,
    [] {
      return schemeByMap(
          {SchemeSpec::location(0.1871), SchemeSpec::location(0.0469),
           SchemeSpec::location(0.0134), SchemeSpec::adaptiveLocation()});
    },
    [](Results results, const Scale&, std::ostream& out) {
      schemeMapTable(out, results, /*latency=*/true);
    }};

}  // namespace manet::figures
