// Host churn schedule generation (DESIGN.md §8). Turns a FaultConfig into a
// sorted crash/recover timeline the world replays: a seeded subset of hosts
// alternates exponentially distributed up/down dwell times.
#pragma once

#include <vector>

#include "fault/config.hpp"
#include "net/ids.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace manet::fault {

/// One churn transition: `node` goes down (`up = false`) or comes back up
/// at absolute simulation time `at`.
struct ChurnEvent {
  net::HostId node = net::kInvalidHost;
  sim::TimePoint at{};
  bool up = false;
};

/// Builds the churn timeline for `numHosts` hosts over [0, horizon): empty
/// unless `config.churn` is set. The result is sorted by (at, node, up) and
/// all draws come from `rng`, a stream dedicated to churn.
std::vector<ChurnEvent> buildChurnTimeline(const FaultConfig& config,
                                           int numHosts, sim::TimePoint horizon,
                                           sim::Rng rng);

}  // namespace manet::fault
