#include "mobility/random_roam.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

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
// bits as advance(). `seconds` is sim::toSeconds(t - last). Moves `p` and
// `last` to `t`, or returns false and leaves them alone when the step must
// go to advanceTo().
inline bool stepInTurn(geom::Vec2& p, geom::Vec2 v, sim::TimePoint& last,
                       sim::TimePoint end, sim::TimePoint t, double seconds,
                       const MapSpec& map) {
  if (!(t < end && t > last)) return false;
  const geom::Vec2 q = p + v * seconds;
  if (!(map.contains(q) && map.width > 0.0 && map.height > 0.0)) {
    return false;
  }
  p = q;
  last = t;
  return true;
}

// replay()'s straight run: stepInTurn's step for every k in [from, to),
// with no turn end or map edge to check. Out of line on purpose: inlined
// into replayWith(), or with the point as one Vec2, GCC 12 keeps {x, y} in
// a stack slot and stores and reloads it at every step; here both sums
// stay in registers.
template <typename Seconds>
[[gnu::noinline]] void straightRun(double& x, double& y, double vx,
                                   double vy, Seconds seconds,
                                   std::size_t from, std::size_t to) {
  double px = x;
  double py = y;
  for (std::size_t k = from; k < to; ++k) {
    const double s = seconds(k);
    px += vx * s;
    py += vy * s;
  }
  x = px;
  y = py;
}

bool isNegativeZero(double value) {
  return value == 0.0 && std::signbit(value);
}

}  // namespace

geom::Vec2 RandomRoam::positionAt(sim::TimePoint t) {
  if (stepInTurn(position_, velocity_, lastQuery_, turnEnd_, t,
                 sim::toSeconds(t - lastQuery_), map_)) {
    return position_;
  }
  return advanceTo(t);
}

// After the first time the model's last query is always the previous time,
// so `seconds(k)`, toSeconds(times[k] - times[k-1]), is the step the fast
// path takes. (A closed form for the in-turn run would delete this loop:
// ROADMAP item 9.)
//
// The times before the turn ends form a straight run, found by binary
// search and stepped by straightRun() with one bounds check, at its end:
// within a turn each coordinate's addend keeps its sign, and round-to-
// nearest addition is monotone, so each coordinate moves monotonically and
// an end point on the map means every step stayed on it. A run that ends
// off the map (once per wall hit) is replayed from its start through the
// checked stepInTurn() loop, which hands the step that leaves the map to
// advanceTo(). A repeated time is a zero step, and x + v*0 is x for every
// x but -0.0 (-0.0 + +0.0 is +0.0, where advanceTo() would keep -0.0); a
// sum is -0.0 only when both addends are, so a run that starts with no
// -0.0 coordinate never meets one. Runs that start on -0.0, and every run
// on a map of zero size, take the checked loop.
template <typename Seconds>
geom::Vec2 RandomRoam::replayWith(std::span<const sim::TimePoint> times,
                                  Seconds seconds) {
  if (times.empty()) return position_;
  positionAt(times[0]);
  const MapSpec map = map_;
  const bool mapHasArea = map.width > 0.0 && map.height > 0.0;
  std::size_t k = 1;
  while (k < times.size()) {
    const std::size_t stop = static_cast<std::size_t>(
        std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(k),
                         times.end(), turnEnd_) -
        times.begin());
    if (stop > k && mapHasArea && !isNegativeZero(position_.x) &&
        !isNegativeZero(position_.y)) {
      double x = position_.x;
      double y = position_.y;
      straightRun(x, y, velocity_.x, velocity_.y, seconds, k, stop);
      if (map.contains({x, y})) {
        position_ = {x, y};
        lastQuery_ = times[stop - 1];
        k = stop;
      }
    }
    // The checked fast path over as many times as it holds, with no call
    // in the loop so that the state stays in registers: the run that left
    // the map, up to the step that leaves it, or none.
    geom::Vec2 p = position_;
    const geom::Vec2 v = velocity_;
    sim::TimePoint last = lastQuery_;
    const sim::TimePoint end = turnEnd_;
    while (k < times.size() &&
           stepInTurn(p, v, last, end, times[k], seconds(k), map)) {
      ++k;
    }
    position_ = p;
    lastQuery_ = last;
    if (k == times.size()) break;
    advanceTo(times[k++]);
  }
  return position_;
}

geom::Vec2 RandomRoam::replay(std::span<const sim::TimePoint> times) {
  return replayWith(times, [times](std::size_t k) {
    return sim::toSeconds(times[k] - times[k - 1]);
  });
}

geom::Vec2 RandomRoam::replay(std::span<const sim::TimePoint> times,
                              std::span<const double> steps) {
  MANET_EXPECTS(steps.size() == times.size());
  return replayWith(times, [steps](std::size_t k) { return steps[k]; });
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
