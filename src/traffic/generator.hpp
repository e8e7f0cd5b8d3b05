// Workload generator (DESIGN.md §12): composes an arrival process with a
// source model into the deterministic (time, source, seq) schedule the world
// injects. One generator is a pure function of its configuration — schedule()
// draws only from the Rng it is handed, so the same seed always yields the
// same schedule, and the default (Uniform arrivals, uniform sources) consumes
// the workload stream draw-for-draw like the pre-subsystem inline loop.
#pragma once

#include <vector>

#include "geom/vec2.hpp"
#include "sim/random.hpp"
#include "traffic/config.hpp"

namespace manet::traffic {

class Generator {
 public:
  /// `uniformMax` parameterizes the default Uniform arrival process (the
  /// scenario's interarrivalMax). `initialPositions`/`mapMeters` are only
  /// consulted by the kZone source model and may be empty/0 otherwise.
  Generator(const TrafficConfig& config, int numHosts,
            sim::Duration uniformMax,
            std::vector<geom::Vec2> initialPositions = {},
            double mapMeters = 0.0);

  /// Builds the full schedule: `count` requests, the first gap measured from
  /// `start`, times non-decreasing, seq = position in stream order. Per
  /// request the draw order is fixed — arrival gap first, then source — so
  /// arrival and source models compose without perturbing each other's
  /// streams.
  std::vector<Request> schedule(int count, sim::TimePoint start,
                                sim::Rng& rng) const;

  const TrafficConfig& config() const { return config_; }

 private:
  TrafficConfig config_;
  int numHosts_;
  sim::Duration uniformMax_;
  std::vector<geom::Vec2> initialPositions_;
  double mapMeters_;
};

}  // namespace manet::traffic
