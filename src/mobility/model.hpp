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

  /// replay(times), given `steps[k] = sim::toSeconds(times[k] - times[k-1])`
  /// for every k >= 1 (`steps[0]` is not read): a source that replays the
  /// same times to many models computes each step once.
  virtual geom::Vec2 replay(std::span<const sim::TimePoint> times,
                            std::span<const double> steps) {
    (void)steps;
    return replay(times);
  }

  /// The position replay(pending, steps) then positionAt(t) would return,
  /// without advancing the model: observers (tracing) use it so that
  /// watching a run never changes its trajectories. Same precondition on the
  /// times; `steps` as for replay(times, steps).
  virtual geom::Vec2 peekPositionAt(std::span<const sim::TimePoint> pending,
                                    std::span<const double> steps,
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
                            std::span<const double>,
                            sim::TimePoint) const override {
    return position_;
  }
  double maxSpeedMps() const override { return 0.0; }

 private:
  friend struct manet::ckpt::StateAccess;
  geom::Vec2 position_;
};

}  // namespace manet::mobility
