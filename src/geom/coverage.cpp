#include "geom/coverage.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// Relative half-width of the filter band. The block scan places each
/// sample with fastUnit instead of libm's cos/sin and otherwise computes
/// the exact scan's formula. The two points differ per axis by rho times
/// the two directions' error (fastUnit's ~1e-14 plus libm's 1 ulp) plus one
/// rounding of the add to `self`: at most ~2.2e-10 * r for coordinates up
/// to 1e6 * r, 3.1e-10 * r in distance. Near the rim (d ~ r) that moves d^2
/// by at most 2 * r * 3.1e-10 * r ~= 6.2e-10 * r^2, plus a few ulp of r^2
/// from the squares and the bounds. So a least d^2 at or below
/// r^2 * (1 - 1e-6) means the exact scan finds the sample inside a disk,
/// and one above r^2 * (1 + 1e-6) means it finds it outside every disk,
/// each with a margin of over 1,000x. Samples in between take the exact
/// scan itself.
constexpr double kFilterBand = 1e-6;

/// Samples per block; the settle rule is checked between blocks.
constexpr int kBlock = 64;

/// fastUnit's table: the directions at angles 2 pi k / kTurn, k = 0..kTurn.
constexpr int kTurn = 256;
using DirectionTable = std::array<Vec2, kTurn + 1>;

const DirectionTable& directionTable() {
  static const DirectionTable table = [] {
    DirectionTable t;
    for (int k = 0; k <= kTurn; ++k) {
      t[static_cast<std::size_t>(k)] = unitVector(2.0 * kPi * k / kTurn);
    }
    return t;
  }();
  return table;
}

/// (cos, sin) of `radians` in [0, 2 pi] to within ~1e-14 per component,
/// without a branch or a libm call: the nearest table direction, turned by
/// the remainder f (|f| <= pi / kTurn) through Taylor series of degree 5
/// (sin) and 4 (cos).
Vec2 fastUnit(double radians, const DirectionTable& table) {
  const int k = static_cast<int>(radians * (kTurn / (2.0 * kPi)) + 0.5);
  const double f = radians - k * (2.0 * kPi / kTurn);
  const double f2 = f * f;
  const double sinF = f * (1.0 + f2 * (-1.0 / 6 + f2 * (1.0 / 120)));
  const double cosF = 1.0 + f2 * (-1.0 / 2 + f2 * (1.0 / 24));
  const Vec2 t = table[static_cast<std::size_t>(k)];
  return {t.x * cosF - t.y * sinF, t.y * cosF + t.x * sinF};
}

/// The plain estimator's scan: whether the sample at (rho, angle) lies in a
/// covered disk.
bool coveredExactly(Vec2 self, std::span<const Vec2> covered, double r2,
                    double rho, double angle) {
  const Vec2 p = self + rho * unitVector(angle);
  for (const Vec2& c : covered) {
    if (distanceSquared(p, c) <= r2) return true;
  }
  return false;
}

/// The one sampling loop. Draws `samples` points uniformly in self's disk
/// (two draws each) and counts those outside every covered disk, kBlock
/// samples at a time:
///  * each sample draws its radius rho = r * sqrt(u), then its angle, and
///    is placed with fastUnit;
///  * the scan keeps each sample's least squared distance to a covered
///    disk, disks outer and samples inner, so that it vectorizes;
///  * a sample is covered by interior acceptance or a least d^2 below the
///    filter band, uncovered above the band, and decided by the plain scan
///    inside it, so every verdict is the plain estimator's.
/// Between blocks, the loop stops once the count reaches `stopAt` or can no
/// longer reach `needAtLeast`; the rest of the draws are then consumed
/// unused, so `rng` always ends `2 * samples` draws further on. Returns the
/// count over the blocks it ran: exact when neither bound fired, and on the
/// same side of the bound that fired otherwise.
int countUncovered(Vec2 self, std::span<const Vec2> covered, double r,
                   sim::Rng& rng, int samples, int stopAt, int needAtLeast) {
  MANET_EXPECTS(r > 0.0);
  MANET_EXPECTS(samples > 0);
  const double r2 = r * r;
  const double coveredBelow = r2 * (1.0 - kFilterBand);
  const double uncoveredAbove = r2 * (1.0 + kFilterBand);
  double dmin = std::numeric_limits<double>::infinity();
  for (const Vec2& c : covered) dmin = std::min(dmin, distance(self, c));
  const double interior = r * (1.0 - kInteriorSlack) - dmin;
  const DirectionTable& table = directionTable();

  // The scan runs over whole blocks: the lanes past a partial last block
  // keep earlier samples, which are scanned but never counted.
  std::array<double, kBlock> rho{};
  std::array<double, kBlock> angle{};
  std::array<double, kBlock> px{};
  std::array<double, kBlock> py{};
  std::array<double, kBlock> nearest{};
  sim::Rng draws = rng;
  int uncovered = 0;
  int i = 0;
  while (i < samples) {
    if (uncovered >= stopAt || uncovered + (samples - i) < needAtLeast) break;
    const int n = std::min(kBlock, samples - i);
    for (int j = 0; j < n; ++j) {
      rho[j] = r * std::sqrt(draws.uniform());
      angle[j] = draws.uniform(0.0, 2.0 * kPi);
      const Vec2 dir = fastUnit(angle[j], table);
      px[j] = self.x + rho[j] * dir.x;
      py[j] = self.y + rho[j] * dir.y;
    }
    nearest.fill(std::numeric_limits<double>::infinity());
    for (const Vec2& c : covered) {
      for (int j = 0; j < kBlock; ++j) {
        const double dx = px[j] - c.x;
        const double dy = py[j] - c.y;
        const double d2 = dx * dx + dy * dy;
        nearest[j] = d2 < nearest[j] ? d2 : nearest[j];
      }
    }
    // open: not accepted as interior; band: inside the filter band.
    int inBand = 0;
    for (int j = 0; j < n; ++j) {
      const int open = rho[j] > interior;
      const int out = nearest[j] > uncoveredAbove;
      const int band = (nearest[j] > coveredBelow) & (1 - out);
      uncovered += open & out;
      inBand |= open & band;
    }
    if (inBand != 0) {
      for (int j = 0; j < n; ++j) {
        if (rho[j] > interior && nearest[j] > coveredBelow &&
            nearest[j] <= uncoveredAbove &&
            !coveredExactly(self, covered, r2, rho[j], angle[j])) {
          ++uncovered;
        }
      }
    }
    i += n;
  }
  for (int skipped = 2 * (samples - i); skipped > 0; --skipped) {
    (void)draws.next();
  }
  rng = draws;
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
