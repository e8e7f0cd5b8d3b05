// The paper's roaming pattern (§4): "The roaming pattern of each host
// consists of a series of turns. In each turn, the direction, speed, and time
// interval are randomly generated. The direction is uniformly distributed
// from 0 to 360 degrees, the time interval from 1 to 100 seconds, and the
// speed from 0 to a given maximum speed."
//
// The paper does not state boundary behaviour; we reflect at map edges
// (specular bounce), which keeps the spatial distribution near-uniform and
// avoids the edge pile-up that clamping would cause.
#pragma once

#include "mobility/map.hpp"
#include "mobility/model.hpp"
#include "sim/random.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::mobility {

struct RoamParams {
  double maxSpeedMps = kmhToMps(10.0);
  sim::Duration minTurnDuration = 1 * sim::kSecond;
  sim::Duration maxTurnDuration = 100 * sim::kSecond;
};

class RandomRoam final : public MobilityModel {
 public:
  RandomRoam(MapSpec map, geom::Vec2 start, RoamParams params, sim::Rng rng);

  geom::Vec2 positionAt(sim::TimePoint t) override;
  geom::Vec2 replay(std::span<const sim::TimePoint> times) override;
  geom::Vec2 replay(std::span<const sim::TimePoint> times,
                    std::span<const double> steps) override;
  geom::Vec2 peekPositionAt(std::span<const sim::TimePoint> pending,
                            std::span<const double> steps,
                            sim::TimePoint t) const override {
    RandomRoam copy = *this;
    if (!pending.empty()) copy.replay(pending, steps);
    return copy.positionAt(t);
  }
  double maxSpeedMps() const override { return params_.maxSpeedMps; }

  /// Velocity of the current turn, in m/s (introspection for tests).
  geom::Vec2 currentVelocity() const { return velocity_; }

 private:
  friend struct manet::ckpt::StateAccess;
  void beginTurn();
  /// Advances `position_` along `velocity_` for `dt`, reflecting at edges.
  void advance(sim::Duration dt);
  /// The general step to time `t`: through every turn end before it, with
  /// reflection and clamping. Returns the new position.
  geom::Vec2 advanceTo(sim::TimePoint t);
  /// Both replay()s: `seconds(k)` is the step from times[k-1] to times[k].
  template <typename Seconds>
  geom::Vec2 replayWith(std::span<const sim::TimePoint> times,
                        Seconds seconds);

  MapSpec map_;
  RoamParams params_;
  sim::Rng rng_;
  geom::Vec2 position_;
  geom::Vec2 velocity_{0.0, 0.0};
  sim::TimePoint turnEnd_{};   // absolute time the current turn finishes
  sim::TimePoint lastQuery_{}; // last time position_ was valid for
};

}  // namespace manet::mobility
