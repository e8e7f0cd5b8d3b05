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

namespace {

// The in-turn fast path shared by positionAt() and replay(): a query at `t`
// strictly inside the turn (last < t < end) whose step lands on the map (of
// positive size) is left unchanged by reflect and clamp, so skip them. Same
// bits as advance(). Moves `p` and `last` to `t`, or returns false and
// leaves them alone when the step must go to advanceTo().
inline bool stepInTurn(geom::Vec2& p, geom::Vec2 v, sim::TimePoint& last,
                       sim::TimePoint end, sim::TimePoint t,
                       const MapSpec& map) {
  if (!(t < end && t > last)) return false;
  const geom::Vec2 q = p + v * sim::toSeconds(t - last);
  if (!(q.x >= 0.0 && q.x <= map.width && q.y >= 0.0 && q.y <= map.height &&
        map.width > 0.0 && map.height > 0.0)) {
    return false;
  }
  p = q;
  last = t;
  return true;
}

}  // namespace

geom::Vec2 RandomRoam::positionAt(sim::TimePoint t) {
  if (stepInTurn(position_, velocity_, lastQuery_, turnEnd_, t, map_)) {
    return position_;
  }
  return advanceTo(t);
}

geom::Vec2 RandomRoam::replay(std::span<const sim::TimePoint> times) {
  const MapSpec map = map_;
  auto t = times.begin();
  while (t != times.end()) {
    // The fast path over as many times as it holds, with no call in the
    // loop so that the state stays in registers.
    geom::Vec2 p = position_;
    const geom::Vec2 v = velocity_;
    sim::TimePoint last = lastQuery_;
    const sim::TimePoint end = turnEnd_;
    while (t != times.end() && stepInTurn(p, v, last, end, *t, map)) ++t;
    position_ = p;
    lastQuery_ = last;
    if (t == times.end()) break;
    advanceTo(*t++);
  }
  return position_;
}

geom::Vec2 RandomRoam::advanceTo(sim::TimePoint t) {
  MANET_EXPECTS(t >= lastQuery_);
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
