#include "experiment/scheme_spec.hpp"

#include "util/assert.hpp"

namespace manet::experiment {

SchemeSpec SchemeSpec::flooding() {
  SchemeSpec s;
  s.type = Type::kFlooding;
  return s;
}

SchemeSpec SchemeSpec::probabilistic(double p) {
  SchemeSpec s;
  s.type = Type::kProbabilistic;
  s.probability = p;
  return s;
}

SchemeSpec SchemeSpec::counter(int c) {
  SchemeSpec s;
  s.type = Type::kCounter;
  s.counterC = c;
  return s;
}

SchemeSpec SchemeSpec::distance(double dMeters) {
  SchemeSpec s;
  s.type = Type::kDistance;
  s.distanceD = dMeters;
  return s;
}

SchemeSpec SchemeSpec::location(double a) {
  SchemeSpec s;
  s.type = Type::kLocation;
  s.areaA = a;
  return s;
}

SchemeSpec SchemeSpec::adaptiveCounter(core::CounterThreshold fn,
                                       std::string label) {
  SchemeSpec s;
  s.type = Type::kAdaptiveCounter;
  s.counterFn = std::move(fn);
  s.label = std::move(label);
  return s;
}

SchemeSpec SchemeSpec::adaptiveLocation(core::AreaThreshold fn,
                                        std::string label) {
  SchemeSpec s;
  s.type = Type::kAdaptiveLocation;
  s.areaFn = std::move(fn);
  s.label = std::move(label);
  return s;
}

SchemeSpec SchemeSpec::neighborCoverage() {
  SchemeSpec s;
  s.type = Type::kNeighborCoverage;
  return s;
}

std::unique_ptr<core::RebroadcastPolicy> SchemeSpec::build() const {
  switch (type) {
    case Type::kFlooding:
      return std::make_unique<core::FloodingPolicy>();
    case Type::kProbabilistic:
      return std::make_unique<core::ProbabilisticPolicy>(probability);
    case Type::kCounter:
      return std::make_unique<core::CounterPolicy>(counterC);
    case Type::kDistance:
      return std::make_unique<core::DistancePolicy>(distanceD);
    case Type::kLocation:
      return std::make_unique<core::LocationPolicy>(areaA);
    case Type::kAdaptiveCounter:
      return std::make_unique<core::AdaptiveCounterPolicy>(
          counterFn, label.empty() ? "AC" : label);
    case Type::kAdaptiveLocation:
      return std::make_unique<core::AdaptiveLocationPolicy>(
          areaFn, label.empty() ? "AL" : label);
    case Type::kNeighborCoverage:
      return std::make_unique<core::NeighborCoveragePolicy>();
  }
  MANET_ASSERT(false);
  return nullptr;
}

std::string SchemeSpec::name() const {
  if (!label.empty()) return label;
  return build()->name();
}

bool SchemeSpec::needsNeighborInfo() const {
  switch (type) {
    case Type::kAdaptiveCounter:
    case Type::kAdaptiveLocation:
    case Type::kNeighborCoverage:
      return true;
    default:
      return false;
  }
}

bool SchemeSpec::needsTwoHopInfo() const {
  return type == Type::kNeighborCoverage;
}

}  // namespace manet::experiment
