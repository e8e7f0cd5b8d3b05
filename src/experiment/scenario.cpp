#include "experiment/scenario.hpp"

#include "util/assert.hpp"

namespace manet::experiment {

ScenarioConfig ScenarioConfig::resolved() const {
  ScenarioConfig out = *this;
  MANET_EXPECTS(out.mapUnits >= 1);
  MANET_EXPECTS(out.numHosts >= 1);
  MANET_EXPECTS(out.numBroadcasts >= 0);
  MANET_EXPECTS(out.jitterSlots >= 0);
  MANET_EXPECTS(out.scheme.counterC >= 1);
  MANET_EXPECTS(out.scheme.areaA >= 0.0 && out.scheme.areaA <= 1.0);

  if (!out.fixedPositions.empty()) {
    out.numHosts = static_cast<int>(out.fixedPositions.size());
  }

  if (out.maxSpeedKmh < 0.0) {
    // Paper: "the maximum speed is 10 km/hour in the 1x1 map, 30 km/hour in
    // the 3x3 map, 50 km/hour in the 5x5 map, etc." — i.e. 10*N km/h.
    out.maxSpeedKmh = 10.0 * out.mapUnits;
  }

  if (out.neighborSource == NeighborSource::kHello &&
      out.scheme.needsNeighborInfo()) {
    out.hello.enabled = true;
    if (out.scheme.needsTwoHopInfo()) out.hello.piggybackNeighbors = true;
  }

  if (out.warmup < sim::Duration{}) {
    if (out.hello.enabled) {
      const sim::Duration interval =
          out.hello.dynamic ? out.hello.intervalMax : out.hello.interval;
      out.warmup = 2 * interval + 1 * sim::kSecond;
    } else {
      out.warmup = 100 * sim::kMillisecond;
    }
  }
  return out;
}

}  // namespace manet::experiment
