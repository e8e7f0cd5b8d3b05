#include "fault/churn.hpp"

#include <algorithm>
#include <cmath>

namespace manet::fault {
namespace {

/// Exponentially distributed duration with the given mean, floored at one
/// microsecond so consecutive events never coincide on a host.
sim::Duration exponential(sim::Rng& rng, sim::Duration mean) {
  const double u = rng.uniform();
  return std::max(sim::kMicrosecond, sim::scaleTrunc(mean, -std::log(1.0 - u)));
}

}  // namespace

std::vector<ChurnEvent> buildChurnTimeline(const FaultConfig& config,
                                           int numHosts, sim::TimePoint horizon,
                                           sim::Rng rng) {
  std::vector<ChurnEvent> timeline;
  if (!config.churn) return timeline;
  for (int i = 0; i < numHosts; ++i) {
    // Per-host stream: membership and dwell times of host i never depend
    // on how many events other hosts generated.
    sim::Rng hostRng = rng.fork(static_cast<std::uint64_t>(i));
    if (!hostRng.bernoulli(config.churnFraction)) continue;
    // Start mid-cycle so crashes are spread over the run instead of
    // clustering near t = 0.
    sim::TimePoint t = sim::kTimeZero + exponential(hostRng, config.meanUpTime);
    bool up = false;  // next transition takes the host down
    while (t < horizon) {
      timeline.push_back(
          ChurnEvent{net::HostId{static_cast<std::uint32_t>(i)}, t, up});
      t += exponential(hostRng, up ? config.meanUpTime : config.meanDownTime);
      up = !up;
    }
  }
  std::sort(timeline.begin(), timeline.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.node != b.node) return a.node < b.node;
              return a.up < b.up;
            });
  return timeline;
}

}  // namespace manet::fault
