// Monte-Carlo additional-coverage estimation.
//
// Two users:
//  * the location-based schemes, which must decide at runtime whether the
//    fraction of a host's disk not already covered by the senders it heard
//    the packet from reaches a threshold (paper §2.3.2 / §3.2), and
//  * the EAC(k) experiment behind Fig. 1, which needs the fraction itself.
//
// Both run one sampling loop (DESIGN.md §7.4): a sample within r - dmin of
// `self`, dmin being the distance to the nearest sender, lies in that
// sender's disk and is accepted without its trig, and the decision stops
// sampling once the verdict cannot change. Neither shortcut changes a
// result or the number of draws taken.
#pragma once

#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/random.hpp"

namespace manet::geom {

/// Estimates the fraction (0..1) of the disk of radius `r` centered at `self`
/// that is NOT covered by the equal-radius disks centered at `covered`.
/// Uses `samples` uniform points in self's disk; error ~ 1/sqrt(samples).
/// Always takes 2 * samples draws from `rng`.
double uncoveredFraction(Vec2 self, std::span<const Vec2> covered, double r,
                         sim::Rng& rng, int samples = 1024);

/// Exactly `uncoveredFraction(self, covered, r, rng, samples) >= threshold`,
/// leaving `rng` in exactly the same state (2 * samples draws), but skips
/// the geometry of every sample after the verdict is settled. Any threshold
/// is accepted: <= 0 is always true and > 1 (or NaN) always false.
bool uncoveredFractionAtLeast(Vec2 self, std::span<const Vec2> covered,
                              double r, double threshold, sim::Rng& rng,
                              int samples = 1024);

/// One trial of the EAC experiment: place `k` senders uniformly at random so
/// that each could have been heard by a receiver at the origin (i.e. within
/// distance r), then measure the receiver's uncovered disk fraction.
double eacTrial(int k, double r, sim::Rng& rng, int samples = 1024);

/// EAC(k) / (pi r^2): expected additional coverage fraction after hearing the
/// same packet k times (Fig. 1), averaged over `trials` random placements.
double expectedAdditionalCoverage(int k, double r, sim::Rng& rng,
                                  int trials = 2000, int samples = 1024);

/// Convenience: EAC(k) for k = 1..kMax (Fig. 1's series).
std::vector<double> eacSeries(int kMax, double r, sim::Rng& rng,
                              int trials = 2000, int samples = 1024);

/// The constant the adaptive location-based scheme uses for crowded
/// neighborhoods: EAC(2)/(pi r^2) ~= 0.187 (paper §3.2).
inline constexpr double kEac2Fraction = 0.187;

}  // namespace manet::geom
