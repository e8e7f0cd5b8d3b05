// Scenario configuration: the knobs of the paper's experimental setup (§4)
// with the paper's values as defaults.
#pragma once

#include <cstdint>
#include <vector>

#include "experiment/scheme_spec.hpp"
#include "geom/vec2.hpp"
#include "mac/dcf.hpp"
#include "net/hello.hpp"
#include "phy/params.hpp"
#include "sim/time.hpp"

namespace manet::experiment {

/// Where the adaptive schemes get their neighborhood knowledge.
enum class NeighborSource {
  /// True geometric neighborhoods, always current. Matches the assumption
  /// under which the paper tunes C(n)/A(n) (§4.1-4.2).
  kOracle,
  /// HELLO-derived tables with staleness — what Figs. 11-13 study.
  kHello,
};

struct ScenarioConfig {
  // --- topology (paper §4) ---
  int mapUnits = 5;             // N of the N x N map
  double unitMeters = 500.0;    // one transmission radius per unit
  int numHosts = 100;
  /// Max roaming speed; < 0 selects the paper's rule of 10*N km/h on an
  /// N x N map.
  double maxSpeedKmh = -1.0;

  /// When non-empty, overrides random placement: hosts sit at exactly these
  /// positions and never move (numHosts is forced to the list size). Used by
  /// tests and examples that need controlled topologies.
  std::vector<geom::Vec2> fixedPositions;

  // --- scheme under test ---
  SchemeSpec scheme = SchemeSpec::flooding();
  NeighborSource neighborSource = NeighborSource::kOracle;
  net::HelloConfig hello{.enabled = false};

  // --- workload (DESIGN.md §12) ---
  /// Broadcast requests, each from a uniformly random source after a
  /// U(0, interarrivalMax) gap: the paper's single workload.
  int numBroadcasts = 100;                       // paper: 10,000
  sim::Duration interarrivalMax =
      2 * sim::kSecond;  // U(0, 2 s) between requests
  /// Simulated time before the first broadcast (lets HELLO tables fill).
  /// < 0 selects an automatic value (2 hello intervals + 1 s, or 100 ms when
  /// hellos are off).
  sim::Duration warmup{-1};
  /// Simulated time after the last request before the run is cut off.
  sim::Duration drain = 10 * sim::kSecond;

  // --- protocol details ---
  phy::PhyParams phy{};
  mac::MacParams mac{};
  int jitterSlots = 31;     // S2: wait U(0, jitterSlots) slots before MAC
  bool collisions = true;   // ablation hook: false = perfect PHY
  /// Range queries through the channel's spatial grid (default) or the
  /// exhaustive scan. Identical results either way — the switch exists for
  /// differential tests and perf comparisons (also: MANET_CHANNEL_GRID=0).
  bool channelGrid = true;

  std::uint64_t seed = 1;

  /// Returns a copy with all "automatic" fields (speed, hello enablement,
  /// warmup) resolved to concrete values.
  ScenarioConfig resolved() const;

  /// Map side length in meters.
  double mapMeters() const { return mapUnits * unitMeters; }
};

}  // namespace manet::experiment
