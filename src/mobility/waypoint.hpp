// Random-waypoint mobility (not used by the paper's experiments, but a
// standard MANET model; provided for the examples and for sensitivity
// studies). A host picks a uniform destination, travels there at a uniform
// random speed in [minSpeed, maxSpeed], pauses, and repeats.
#pragma once

#include "mobility/map.hpp"
#include "mobility/model.hpp"
#include "sim/random.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::mobility {

struct WaypointParams {
  double minSpeedMps = kmhToMps(1.0);
  double maxSpeedMps = kmhToMps(10.0);
  sim::Duration pause{};
};

class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(MapSpec map, geom::Vec2 start, WaypointParams params,
                 sim::Rng rng);

  geom::Vec2 positionAt(sim::TimePoint t) override;
  geom::Vec2 peekPositionAt(sim::TimePoint t) const override {
    RandomWaypoint copy = *this;
    return copy.positionAt(t);
  }

 private:
  friend struct manet::ckpt::StateAccess;
  void pickLeg();

  MapSpec map_;
  WaypointParams params_;
  sim::Rng rng_;
  geom::Vec2 from_;
  geom::Vec2 to_;
  sim::TimePoint legStart_{};
  sim::TimePoint legEnd_{};    // arrival time at `to_`
  sim::TimePoint pauseEnd_{};  // end of post-arrival pause
  sim::TimePoint lastQuery_{};
};

}  // namespace manet::mobility
