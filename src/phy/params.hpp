// Physical-layer constants, taken verbatim from the paper's §4: transmission
// radius 500 m, rate 1 Mb/s, DSSS PLCP preamble 144 us + header 48 us.
#pragma once

#include <cstddef>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace manet::phy {

struct PhyParams {
  double radiusMeters = 500.0;
  double bitRateBps = 1e6;
  sim::Duration plcpPreamble{144};     // us
  sim::Duration plcpHeader{48};        // us

  /// How long after a transmission starts before other stations' CCA can
  /// sense it (propagation + RF detection latency). Stations that decide to
  /// transmit within this window of each other collide — the §2.2.3
  /// mechanism ("carriers cannot be sensed immediately due to things such
  /// as RF delays"). Must be far below the shortest frame airtime.
  sim::Duration carrierSenseDelay{5};  // us (within one 20 us slot)

  /// On-air duration of a frame with `payloadBytes` of MAC payload.
  sim::Duration frameAirtime(std::size_t payloadBytes) const {
    MANET_EXPECTS(bitRateBps > 0.0);
    const double payloadUs =
        static_cast<double>(payloadBytes) * 8.0 * 1e6 / bitRateBps;
    return plcpPreamble + plcpHeader +
           sim::Duration{static_cast<std::int64_t>(payloadUs + 0.5)};
  }
};

}  // namespace manet::phy
