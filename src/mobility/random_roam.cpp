#include "mobility/random_roam.hpp"

#include <cmath>

#include "geom/circle.hpp"
#include "util/assert.hpp"

namespace manet::mobility {

RandomRoam::RandomRoam(MapSpec map, geom::Vec2 start, RoamParams params,
                       sim::Rng rng)
    : map_(map), params_(params), rng_(rng), position_(map.clamp(start)) {
  MANET_EXPECTS(params_.maxSpeedMps >= 0.0);
  MANET_EXPECTS(params_.minTurnDuration >= sim::kMicrosecond);
  MANET_EXPECTS(params_.maxTurnDuration >= params_.minTurnDuration);
  beginTurn();
}

void RandomRoam::beginTurn() {
  const double direction = rng_.uniform(0.0, 2.0 * geom::kPi);
  const double speed = rng_.uniform(0.0, params_.maxSpeedMps);
  velocity_ = speed * geom::unitVector(direction);
  turnEnd_ = lastQuery_ + rng_.uniformDuration(params_.minTurnDuration,
                                               params_.maxTurnDuration);
}

void RandomRoam::advance(sim::Duration dt) {
  if (dt <= sim::Duration{}) return;
  const double seconds = sim::toSeconds(dt);
  geom::Vec2 p = position_ + velocity_ * seconds;
  // Specular reflection: fold the coordinate back into [0, L] (possibly
  // several times for long legs on small maps) and flip the velocity sign an
  // odd number of folds.
  auto reflect = [](double value, double limit, double& velocity) {
    if (limit <= 0.0) return 0.0;
    while (value < 0.0 || value > limit) {
      if (value < 0.0) {
        value = -value;
        velocity = -velocity;
      } else {
        value = 2.0 * limit - value;
        velocity = -velocity;
      }
    }
    return value;
  };
  p.x = reflect(p.x, map_.width, velocity_.x);
  p.y = reflect(p.y, map_.height, velocity_.y);
  position_ = map_.clamp(p);
}

geom::Vec2 RandomRoam::positionAt(sim::TimePoint t) {
  MANET_EXPECTS(t >= lastQuery_);
  if (t < turnEnd_ && t > lastQuery_) {
    // In-turn fast path: a step that lands on the map (of positive size)
    // is left unchanged by reflect and clamp, so skip them. Same bits as
    // advance(); an off-map step falls through and takes it.
    const geom::Vec2 p =
        position_ + velocity_ * sim::toSeconds(t - lastQuery_);
    if (p.x >= 0.0 && p.x <= map_.width && p.y >= 0.0 &&
        p.y <= map_.height && map_.width > 0.0 && map_.height > 0.0) {
      position_ = p;
      lastQuery_ = t;
      return p;
    }
  }
  while (t >= turnEnd_) {
    advance(turnEnd_ - lastQuery_);
    lastQuery_ = turnEnd_;
    beginTurn();
  }
  advance(t - lastQuery_);
  lastQuery_ = t;
  return position_;
}

}  // namespace manet::mobility
