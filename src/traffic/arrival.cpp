#include "traffic/arrival.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace manet::traffic {

namespace {

/// Exponential draw with the given mean, rounded to whole microseconds.
/// uniform() is in [0, 1), so 1-u is in (0, 1] and the log is finite.
sim::Duration exponentialGap(sim::Duration mean, sim::Rng& rng) {
  const double u = rng.uniform();
  return sim::scaleRound(mean, -std::log(1.0 - u));
}

}  // namespace

PoissonArrival::PoissonArrival(double ratePerSecond)
    : ratePerSecond_(ratePerSecond) {
  MANET_EXPECTS(ratePerSecond > 0.0);
}

sim::Duration PoissonArrival::nextGap(sim::Rng& rng) {
  // Mean gap is 1e6/rate microseconds, rounded half up; keeping the
  // historical division order preserves the draw stream bit-for-bit.
  const sim::Duration mean{static_cast<std::int64_t>(
      // NOLINT-units(poisson mean keeps the historical 1e6/rate division)
      static_cast<double>(sim::kSecond.ticks()) / ratePerSecond_ + 0.5)};
  return exponentialGap(mean, rng);
}

PeriodicArrival::PeriodicArrival(sim::Duration period) : period_(period) {
  MANET_EXPECTS(period > sim::Duration{});
}

BurstArrival::BurstArrival(int length, sim::Duration gapMax,
                           sim::Duration idleMean)
    : length_(length), gapMax_(gapMax), idleMean_(idleMean) {
  MANET_EXPECTS(length >= 1);
  MANET_EXPECTS(gapMax >= sim::Duration{});
  MANET_EXPECTS(idleMean > sim::Duration{});
}

sim::Duration BurstArrival::nextGap(sim::Rng& rng) {
  if (remainingInBurst_ > 0) {
    --remainingInBurst_;
    return rng.uniformDuration(sim::Duration{}, gapMax_);
  }
  // This request opens a new burst; the remaining length-1 requests follow
  // at intra-burst spacing.
  remainingInBurst_ = length_ - 1;
  return exponentialGap(idleMean_, rng);
}

std::unique_ptr<ArrivalProcess> makeArrival(const TrafficConfig& config,
                                            sim::Duration uniformMax) {
  switch (config.arrival) {
    case TrafficConfig::Arrival::kUniform:
      return std::make_unique<UniformArrival>(uniformMax);
    case TrafficConfig::Arrival::kPoisson:
      return std::make_unique<PoissonArrival>(config.poissonRatePerSecond);
    case TrafficConfig::Arrival::kPeriodic:
      return std::make_unique<PeriodicArrival>(config.period);
    case TrafficConfig::Arrival::kBurst:
      return std::make_unique<BurstArrival>(
          config.burstLength, config.burstGapMax, config.burstIdleMean);
  }
  MANET_ASSERT(!"unreachable arrival process");
  return nullptr;
}

}  // namespace manet::traffic
