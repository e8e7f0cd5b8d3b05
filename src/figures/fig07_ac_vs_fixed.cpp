// Fig. 7: adaptive counter-based scheme (AC) vs fixed-threshold counter
// scheme, C in {2, 4, 6}, across the six maps.
//   (a) RE and SRB    (b) average broadcast latency.
// Paper's shape: C=2 gives high SRB but RE collapses on sparse maps; C=6
// keeps RE but wastes rebroadcasts everywhere; AC keeps RE high at every
// density while saving significantly in dense maps.
#include "figures/figure.hpp"

namespace manet::figures {

using experiment::SchemeSpec;

const Figure kFig07{
    "fig07_ac_vs_fixed", "Fig. 7 - AC vs fixed counter thresholds",
    "AC resolves the RE/SRB dilemma of fixed C", 60,
    [] {
      return schemeByMap({SchemeSpec::counter(2), SchemeSpec::counter(4),
                          SchemeSpec::counter(6),
                          SchemeSpec::adaptiveCounter()});
    },
    [](Results results, const Scale&, std::ostream& out) {
      schemeMapTable(out, results, /*latency=*/true);
    }};

}  // namespace manet::figures
