// Value-type description of a broadcast scheme, used by scenario configs and
// bench sweeps; `build()` turns it into the polymorphic policy object.
#pragma once

#include <memory>
#include <string>

#include "core/policies.hpp"
#include "core/threshold.hpp"

namespace manet::experiment {

struct SchemeSpec {
  enum class Type {
    kFlooding,
    kProbabilistic,
    kCounter,
    kDistance,
    kLocation,
    kAdaptiveCounter,
    kAdaptiveLocation,
    kNeighborCoverage,
  };

  Type type = Type::kFlooding;
  double probability = 1.0;                                  // kProbabilistic
  int counterC = 3;                                          // kCounter
  double distanceD = 0.0;                                    // kDistance
  double areaA = 0.0134;                                     // kLocation
  core::CounterThreshold counterFn =
      core::CounterThreshold::suggested();                   // kAdaptiveCounter
  core::AreaThreshold areaFn = core::AreaThreshold::suggested();  // kAdaptiveLocation
  std::string label;  // overrides the default name when non-empty

  // ---- factories (one per scheme the paper evaluates) ----
  static SchemeSpec flooding();
  static SchemeSpec probabilistic(double p);
  static SchemeSpec counter(int c);
  static SchemeSpec distance(double dMeters);
  static SchemeSpec location(double a);
  static SchemeSpec adaptiveCounter(
      core::CounterThreshold fn = core::CounterThreshold::suggested(),
      std::string label = "AC");
  static SchemeSpec adaptiveLocation(
      core::AreaThreshold fn = core::AreaThreshold::suggested(),
      std::string label = "AL");
  static SchemeSpec neighborCoverage();

  /// Instantiates the policy object shared by all hosts of a run.
  std::unique_ptr<core::RebroadcastPolicy> build() const;

  /// Display name ("AC", "C=2", "A=0.0134", ...).
  std::string name() const;

  /// True for the schemes that consult |N_x| or neighbor sets.
  bool needsNeighborInfo() const;

  /// True for neighbor coverage, which additionally needs N_{x,h}.
  bool needsTwoHopInfo() const;
};

}  // namespace manet::experiment
