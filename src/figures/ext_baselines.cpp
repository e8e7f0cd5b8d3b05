// Extension bench: the remaining fixed-threshold baselines of Ni et al.
// [15] that this paper's figures don't re-plot — probabilistic(p) and
// distance-based(D) — next to the counter baseline. Expected shape (from
// [15]): probabilistic trades RE for SRB linearly in p; distance-based
// needs large D to save anything but then loses sparse-map RE, and is
// dominated by the location-based scheme that replaced it.
#include "figures/figure.hpp"

namespace manet::figures {

using experiment::SchemeSpec;

const Figure kBaselines{
    "ext_baselines", "Extension - the [15] baseline family",
    "probabilistic and distance-based suppression vs counter", 40,
    [] {
      return schemeByMap(
          {SchemeSpec::probabilistic(0.7), SchemeSpec::probabilistic(0.4),
           SchemeSpec::distance(100.0), SchemeSpec::distance(250.0),
           SchemeSpec::counter(3)});
    },
    [](Results results, const Scale&, std::ostream& out) {
      schemeMapTable(out, results, /*latency=*/false);
    }};

}  // namespace manet::figures
