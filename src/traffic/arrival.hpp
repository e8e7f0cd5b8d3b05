// Arrival processes (DESIGN.md §12): the stochastic gap between consecutive
// broadcast requests. Each process consumes draws from the workload Rng in a
// fixed per-request order, so a schedule is a pure function of (seed, config)
// — the determinism contract every model must keep.
#pragma once

#include <memory>

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "traffic/config.hpp"

namespace manet::traffic {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Gap (>= 0) between the previous request and the next one. Called once
  /// per request in stream order; implementations may keep state (burst
  /// position) but may draw randomness only from `rng`.
  virtual sim::Duration nextGap(sim::Rng& rng) = 0;
};

/// The paper's workload: gaps ~ U(0, max). Draw-for-draw identical to the
/// pre-subsystem inline loop (one uniformTime per request).
class UniformArrival final : public ArrivalProcess {
 public:
  explicit UniformArrival(sim::Duration max) : max_(max) {}
  sim::Duration nextGap(sim::Rng& rng) override {
    return rng.uniformDuration(sim::Duration{}, max_);
  }

 private:
  sim::Duration max_;
};

/// Poisson stream: exponential gaps with mean 1/rate.
class PoissonArrival final : public ArrivalProcess {
 public:
  explicit PoissonArrival(double ratePerSecond);
  sim::Duration nextGap(sim::Rng& rng) override;

 private:
  double ratePerSecond_;
};

/// Constant bit rate: one request every `period`, no randomness.
class PeriodicArrival final : public ArrivalProcess {
 public:
  explicit PeriodicArrival(sim::Duration period);
  sim::Duration nextGap(sim::Rng&) override { return period_; }

 private:
  sim::Duration period_;
};

/// On/off burst process (MMPP-style): bursts of `length` requests with
/// U(0, gapMax) intra-burst spacing, preceded by exponential idle gaps of
/// mean `idleMean`. The first request of the stream opens the first burst.
class BurstArrival final : public ArrivalProcess {
 public:
  BurstArrival(int length, sim::Duration gapMax, sim::Duration idleMean);
  sim::Duration nextGap(sim::Rng& rng) override;

 private:
  int length_;
  sim::Duration gapMax_;
  sim::Duration idleMean_;
  int remainingInBurst_ = 0;
};

/// Builds the configured process.
std::unique_ptr<ArrivalProcess> makeArrival(const TrafficConfig& config,
                                            sim::Duration uniformMax);

}  // namespace manet::traffic
