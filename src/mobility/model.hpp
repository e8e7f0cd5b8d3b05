// Mobility model interface. Models are queried lazily: positionAt(t) must be
// callable with non-decreasing t values (the simulator only moves forward).
#pragma once

#include <limits>
#include <span>

#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::mobility {

/// Implemented by Stationary and RandomRoam; bench/perf also probes hosts
/// through it (ROADMAP item 10).
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Position at simulation time `t`. Requires t >= every previous query
  /// (models may advance internal state lazily).
  virtual geom::Vec2 positionAt(sim::TimePoint t) = 0;

  /// Queries positionAt at each of `times` (non-empty, non-decreasing, none
  /// before an earlier query) in order and returns the last answer: the
  /// same bits and the same state as those calls, which a model may make
  /// cheaper than one virtual call per time.
  virtual geom::Vec2 replay(std::span<const sim::TimePoint> times) {
    geom::Vec2 p{};
    for (const sim::TimePoint t : times) p = positionAt(t);
    return p;
  }

  /// The position replay(pending) then positionAt(t) would return, without
  /// advancing the model: observers (tracing) use it so that watching a run
  /// never changes its trajectories. Same precondition on the times.
  virtual geom::Vec2 peekPositionAt(std::span<const sim::TimePoint> pending,
                                    sim::TimePoint t) const = 0;

  /// Upper bound on the model's speed, in m/s: no two queries return points
  /// farther apart than this times the time between them. +inf when the
  /// model cannot bound it.
  virtual double maxSpeedMps() const {
    return std::numeric_limits<double>::infinity();
  }
};

/// A host that never moves (dense-map baseline and unit tests).
class Stationary final : public MobilityModel {
 public:
  explicit Stationary(geom::Vec2 position) : position_(position) {}
  geom::Vec2 positionAt(sim::TimePoint) override { return position_; }
  geom::Vec2 peekPositionAt(std::span<const sim::TimePoint>,
                            sim::TimePoint) const override {
    return position_;
  }
  double maxSpeedMps() const override { return 0.0; }

 private:
  friend struct manet::ckpt::StateAccess;
  geom::Vec2 position_;
};

}  // namespace manet::mobility
