// Mobility model interface. Models are queried lazily: positionAt(t) must be
// callable with non-decreasing t values (the simulator only moves forward).
#pragma once

#include "geom/vec2.hpp"
#include "sim/time.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::mobility {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Position at simulation time `t`. Requires t >= every previous query
  /// (models may advance internal state lazily).
  virtual geom::Vec2 positionAt(sim::TimePoint t) = 0;

  /// The position positionAt(t) would return now, without advancing the
  /// model: observers (tracing) use it so that watching a run never changes
  /// its trajectories. Same precondition on `t`.
  virtual geom::Vec2 peekPositionAt(sim::TimePoint t) const = 0;
};

/// A host that never moves (dense-map baseline and unit tests).
class Stationary final : public MobilityModel {
 public:
  explicit Stationary(geom::Vec2 position) : position_(position) {}
  geom::Vec2 positionAt(sim::TimePoint) override { return position_; }
  geom::Vec2 peekPositionAt(sim::TimePoint) const override {
    return position_;
  }

 private:
  friend struct manet::ckpt::StateAccess;
  geom::Vec2 position_;
};

}  // namespace manet::mobility
