#include "geom/coverage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/circle.hpp"
#include "util/assert.hpp"

namespace manet::geom {
namespace {

/// Uniform point in the disk of radius r around center (inverse-CDF radius).
Vec2 uniformInDisk(Vec2 center, double r, sim::Rng& rng) {
  const double radius = r * std::sqrt(rng.uniform());
  const double angle = rng.uniform(0.0, 2.0 * kPi);
  return center + radius * unitVector(angle);
}

/// Relative slack of the interior-acceptance test. A sample at radius rho
/// from `self`, with `self` at distance dmin from a heard sender c, lies
/// within rho + dmin of c. Each coordinate of the computed sample point is
/// off by at most ~1 ulp of its magnitude (the add to `self`, plus ~3 ulp of
/// rho from cos/sin and the multiply); for coordinates up to 1e6 * r that
/// is about 1e6 * r * 2^-53 ~= 1.1e-10 * r per axis, 1.6e-10 * r in
/// distance. distanceSquared and r * r add a few ulp of relative error
/// (~1e-15), and computing dmin and the bound itself adds ~1 ulp of r each.
/// So rho <= r * (1 - 1e-9) - dmin keeps the computed distanceSquared(p, c)
/// below the computed r * r with a margin of over 5x: the disk loop would
/// have reported the sample covered, whatever its angle.
constexpr double kInteriorSlack = 1e-9;

/// The one sampling loop. Draws `samples` points uniformly in self's disk
/// (two draws each) and counts those outside every covered disk. The
/// geometry stops as soon as the count reaches `stopAt` or can no longer
/// reach `needAtLeast`; the rest of the draws are then consumed unused, so
/// `rng` always ends `2 * samples` draws further on. Returns the count so
/// far, which is exact when neither bound fired.
int countUncovered(Vec2 self, std::span<const Vec2> covered, double r,
                   sim::Rng& rng, int samples, int stopAt, int needAtLeast) {
  MANET_EXPECTS(r > 0.0);
  MANET_EXPECTS(samples > 0);
  const double r2 = r * r;
  double dmin = std::numeric_limits<double>::infinity();
  for (const Vec2& c : covered) dmin = std::min(dmin, distance(self, c));
  const double interior = r * (1.0 - kInteriorSlack) - dmin;

  int uncovered = 0;
  int i = 0;
  for (; i < samples; ++i) {
    if (uncovered >= stopAt || uncovered + (samples - i) < needAtLeast) break;
    const double radius = r * std::sqrt(rng.uniform());
    if (radius <= interior) {
      (void)rng.next();  // the angle: covered by the nearest sender anyway
      continue;
    }
    const double angle = rng.uniform(0.0, 2.0 * kPi);
    const Vec2 p = self + radius * unitVector(angle);
    bool hit = false;
    for (const Vec2& c : covered) {
      if (distanceSquared(p, c) <= r2) {
        hit = true;
        break;
      }
    }
    if (!hit) ++uncovered;
  }
  for (int skipped = 2 * (samples - i); skipped > 0; --skipped) {
    (void)rng.next();
  }
  return uncovered;
}

}  // namespace

double uncoveredFraction(Vec2 self, std::span<const Vec2> covered, double r,
                         sim::Rng& rng, int samples) {
  // Neither bound can fire: uncovered <= samples < samples + 1, and
  // uncovered + remaining >= 0.
  const int uncovered =
      countUncovered(self, covered, r, rng, samples, samples + 1, 0);
  return static_cast<double>(uncovered) / samples;
}

bool uncoveredFractionAtLeast(Vec2 self, std::span<const Vec2> covered,
                              double r, double threshold, sim::Rng& rng,
                              int samples) {
  MANET_EXPECTS(samples > 0);
  // m: the fewest uncovered samples for which the estimate
  // uncovered / samples clears the threshold (samples + 1: none does). The
  // rounded quotient is monotone in the count, so the verdict is
  // count >= m, and a binary search over the same predicate finds m exactly.
  int m = 0;
  int hi = samples + 1;
  while (m < hi) {
    const int mid = m + (hi - m) / 2;  // < hi <= samples + 1
    if (static_cast<double>(mid) / samples >= threshold) {
      hi = mid;
    } else {
      m = mid + 1;
    }
  }
  return countUncovered(self, covered, r, rng, samples, m, m) >= m;
}

double eacTrial(int k, double r, sim::Rng& rng, int samples) {
  MANET_EXPECTS(k >= 1);
  // Receiver at the origin; each of the k prior transmitters heard by the
  // receiver lies uniformly within the receiver's range.
  std::vector<Vec2> senders;
  senders.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    senders.push_back(uniformInDisk(Vec2{0.0, 0.0}, r, rng));
  }
  return uncoveredFraction(Vec2{0.0, 0.0}, senders, r, rng, samples);
}

double expectedAdditionalCoverage(int k, double r, sim::Rng& rng, int trials,
                                  int samples) {
  MANET_EXPECTS(trials > 0);
  double sum = 0.0;
  for (int t = 0; t < trials; ++t) sum += eacTrial(k, r, rng, samples);
  return sum / trials;
}

std::vector<double> eacSeries(int kMax, double r, sim::Rng& rng, int trials,
                              int samples) {
  MANET_EXPECTS(kMax >= 1);
  std::vector<double> series;
  series.reserve(static_cast<std::size_t>(kMax));
  for (int k = 1; k <= kMax; ++k) {
    series.push_back(expectedAdditionalCoverage(k, r, rng, trials, samples));
  }
  return series;
}

}  // namespace manet::geom
