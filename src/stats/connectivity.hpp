// Unit-disk connectivity snapshots. RE's denominator e is "the number of
// mobile hosts that are reachable, directly or indirectly, from the source
// host at the moment when the broadcast is taken" (footnote 2: partitions
// are taken into account).
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"

namespace manet::stats {

/// Number of hosts reachable from `source` over links of length <= radius,
/// NOT counting the source itself. An O(V^2) BFS over a position snapshot,
/// for offline analysis and tests; the simulator's `e` comes from
/// `phy::Channel::reachableCount`, which runs the BFS on the channel's grid.
int reachableCount(const std::vector<geom::Vec2>& positions, double radius,
                   std::size_t source);

/// Ids of the hosts reachable from `source` (excluding it), ascending.
std::vector<std::size_t> reachableSet(const std::vector<geom::Vec2>& positions,
                                      double radius, std::size_t source);

/// Connected-component label per host (labels are 0-based, assigned in
/// order of first discovery).
std::vector<int> componentLabels(const std::vector<geom::Vec2>& positions,
                                 double radius);

/// True when every host can reach every other host.
bool isConnected(const std::vector<geom::Vec2>& positions, double radius);

/// Average node degree of the snapshot (diagnostic used by examples).
double averageDegree(const std::vector<geom::Vec2>& positions, double radius);

}  // namespace manet::stats
