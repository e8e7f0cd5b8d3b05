#include "geom/coverage.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/circle.hpp"
#include "sim/random.hpp"

namespace manet::geom {
namespace {

constexpr double kR = 500.0;

/// The plain estimator the kernel must reproduce: every sample pays its trig
/// and the scan over every covered disk.
double referenceFraction(Vec2 self, std::span<const Vec2> covered, double r,
                         sim::Rng& rng, int samples) {
  const double r2 = r * r;
  int uncovered = 0;
  for (int i = 0; i < samples; ++i) {
    const double radius = r * std::sqrt(rng.uniform());
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
  return static_cast<double>(uncovered) / samples;
}

std::array<std::uint64_t, 4> nextDraws(sim::Rng& rng) {
  return {rng.next(), rng.next(), rng.next(), rng.next()};
}

double up(double x) {
  return std::nextafter(x, std::numeric_limits<double>::infinity());
}
double down(double x) {
  return std::nextafter(x, -std::numeric_limits<double>::infinity());
}

TEST(UncoveredFraction, NoCoveringDisksMeansFullyUncovered) {
  sim::Rng rng(1);
  EXPECT_DOUBLE_EQ(uncoveredFraction({0, 0}, {}, kR, rng), 1.0);
}

TEST(UncoveredFraction, CoincidentDiskCoversEverything) {
  sim::Rng rng(2);
  const std::vector<Vec2> covered{{0, 0}};
  EXPECT_DOUBLE_EQ(uncoveredFraction({0, 0}, covered, kR, rng, 4096), 0.0);
}

TEST(UncoveredFraction, FarDiskCoversNothing) {
  sim::Rng rng(3);
  const std::vector<Vec2> covered{{10.0 * kR, 0}};
  EXPECT_DOUBLE_EQ(uncoveredFraction({0, 0}, covered, kR, rng, 4096), 1.0);
}

TEST(UncoveredFraction, MatchesClosedFormForOneDisk) {
  sim::Rng rng(4);
  for (double d : {100.0, 250.0, 400.0, 500.0}) {
    const std::vector<Vec2> covered{{d, 0}};
    const double mc = uncoveredFraction({0, 0}, covered, kR, rng, 200000);
    EXPECT_NEAR(mc, additionalCoverageFraction(kR, d), 0.01) << "d=" << d;
  }
}

TEST(UncoveredFraction, MoreDisksNeverIncreaseCoverageGap) {
  sim::Rng rng(5);
  std::vector<Vec2> covered;
  double prev = 1.0;
  for (int i = 0; i < 6; ++i) {
    covered.push_back({100.0 * (i + 1), 50.0 * i});
    sim::Rng fresh(77);  // same sample points each round
    const double cur = uncoveredFraction({0, 0}, covered, kR, fresh, 8192);
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
}

TEST(EacTrial, WithinUnitInterval) {
  sim::Rng rng(6);
  for (int k = 1; k <= 6; ++k) {
    const double v = eacTrial(k, kR, rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(ExpectedAdditionalCoverage, FirstHearingMatchesAnalyticAverage) {
  // EAC(1)/pi r^2 must equal the analytic ~0.41 of §2.2.1.
  sim::Rng rng(7);
  EXPECT_NEAR(expectedAdditionalCoverage(1, kR, rng, 3000, 512), 0.41, 0.02);
}

TEST(ExpectedAdditionalCoverage, SecondHearingIsAboutPaperConstant) {
  // EAC(2)/pi r^2 ~= 0.187, the constant A(n) saturates at (§3.2).
  sim::Rng rng(8);
  EXPECT_NEAR(expectedAdditionalCoverage(2, kR, rng, 4000, 512),
              kEac2Fraction, 0.02);
}

TEST(EacSeries, StrictlyDecreasingInK) {
  // Fig. 1: the expected additional coverage decays as k grows.
  sim::Rng rng(9);
  const auto series = eacSeries(8, kR, rng, 1500, 256);
  ASSERT_EQ(series.size(), 8u);
  for (size_t k = 1; k < series.size(); ++k) {
    EXPECT_LT(series[k], series[k - 1]) << "k=" << k + 1;
  }
}

TEST(EacSeries, BelowFivePercentAfterFourHearings) {
  // The paper's headline observation from Fig. 1: k >= 4 => EAC < 5%.
  sim::Rng rng(10);
  const auto series = eacSeries(5, kR, rng, 3000, 512);
  EXPECT_LT(series[3], 0.05);  // k = 4
  EXPECT_LT(series[4], 0.05);  // k = 5
}

TEST(EacSeries, ScaleInvariantInRadius) {
  sim::Rng rngA(11);
  sim::Rng rngB(11);
  const auto a = eacSeries(3, 1.0, rngA, 800, 256);
  const auto b = eacSeries(3, 500.0, rngB, 800, 256);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

// Differential check of the decision kernel and the shared sampling loop
// against referenceFraction, on random sender sets that include the
// boundary cases of the interior-acceptance test and thresholds at and next
// to the estimate's achievable values.
TEST(UncoveredFractionAtLeast, MatchesReferenceOnRandomCases) {
  constexpr std::array<double, 2> kRadii{1.0, 500.0};
  // 63..129 end the kernel's 64-sample blocks early, exactly and late, and
  // settle verdicts inside a block.
  constexpr std::array<int, 10> kSamples{1,  2,  7,   63,  64,
                                         65, 128, 129, 512, 1024};
  constexpr std::array<double, 7> kFixedThresholds{
      0.0, 1.0, 1.5, 0.1871, 0.0469, 0.0134, 0.187};
  sim::Rng gen(2024);
  for (int trial = 0; trial < 10000; ++trial) {
    const double r = kRadii[static_cast<std::size_t>(gen.uniformInt(0, 1))];
    const int samples =
        kSamples[static_cast<std::size_t>(gen.uniformInt(0, 9))];
    const Vec2 self{gen.uniform(-6000.0, 6000.0),
                    gen.uniform(-6000.0, 6000.0)};
    const int k = static_cast<int>(gen.uniformInt(0, 40));
    std::vector<Vec2> covered;
    for (int i = 0; i < k; ++i) {
      const Vec2 rim{self.x + r, self.y};
      const Vec2 dir = unitVector(gen.uniform(0.0, 2.0 * kPi));
      switch (gen.uniformInt(0, 7)) {
        case 0: covered.push_back(rim); break;
        case 1: covered.push_back({up(rim.x), rim.y}); break;
        case 2: covered.push_back({down(rim.x), rim.y}); break;
        case 3: covered.push_back(self); break;
        case 4: covered.push_back(self + 2.5 * r * dir); break;
        default: covered.push_back(self + r * std::sqrt(gen.uniform()) * dir);
      }
    }
    const std::uint64_t seed = gen.next();

    sim::Rng refRng(seed);
    const double ref = referenceFraction(self, covered, r, refRng, samples);
    const auto refTail = nextDraws(refRng);

    sim::Rng fracRng(seed);
    const double frac = uncoveredFraction(self, covered, r, fracRng, samples);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(frac),
              std::bit_cast<std::uint64_t>(ref))
        << "trial " << trial;
    ASSERT_EQ(nextDraws(fracRng), refTail) << "trial " << trial;

    // Thresholds: the fixed set, then achievable values u / samples (random
    // and at the reference's own count) with their neighbours either side.
    const int refCount = static_cast<int>(std::lround(ref * samples));
    const int randomCount = static_cast<int>(gen.uniformInt(0, samples));
    std::vector<double> thresholds(kFixedThresholds.begin(),
                                   kFixedThresholds.end());
    for (int u : {randomCount, refCount, refCount + 1}) {
      const double t = static_cast<double>(u) / samples;
      thresholds.insert(thresholds.end(), {t, up(t), down(t)});
    }
    for (double threshold : thresholds) {
      sim::Rng rng(seed);
      const bool verdict =
          uncoveredFractionAtLeast(self, covered, r, threshold, rng, samples);
      ASSERT_EQ(verdict, ref >= threshold)
          << "trial " << trial << " threshold " << threshold;
      ASSERT_EQ(nextDraws(rng), refTail)
          << "trial " << trial << " threshold " << threshold;
    }
  }
}

// Random sender sets almost never put a sample within 1e-9 r of a disk
// edge, so place the one sender to order: opposite the first sample's
// direction, at the distance that puts the sample just inside or just
// outside its disk, with `self` as far out as 1e6 r where rounding is worst.
TEST(UncoveredFractionAtLeast, InteriorAcceptanceHoldsAtTheRim) {
  for (double r : {1.0, 500.0}) {
    for (double offset : {0.0, 6000.0, 1e6 * r}) {
      const Vec2 self{offset, -offset};
      for (std::uint64_t seed = 0; seed < 300; ++seed) {
        sim::Rng peek(seed);
        const double rho = r * std::sqrt(peek.uniform());
        const double angle = peek.uniform(0.0, 2.0 * kPi);
        for (double gap : {-1e-7, -2e-9, -1.1e-9, -1e-9, -9e-10, -1e-10,
                           -1e-11, 0.0, 1e-11, 1e-10, 1e-7}) {
          const double dmin = r - rho + gap * r;
          if (dmin < 0.0) continue;
          const std::vector<Vec2> covered{self - dmin * unitVector(angle)};
          sim::Rng refRng(seed);
          const double ref = referenceFraction(self, covered, r, refRng, 1);
          sim::Rng rng(seed);
          ASSERT_EQ(uncoveredFraction(self, covered, r, rng, 1), ref)
              << "r " << r << " offset " << offset << " seed " << seed
              << " gap " << gap;
          sim::Rng verdictRng(seed);
          ASSERT_EQ(uncoveredFractionAtLeast(self, covered, r, 1.0,
                                             verdictRng, 1),
                    ref >= 1.0)
              << "r " << r << " offset " << offset << " seed " << seed
              << " gap " << gap;
        }
      }
    }
  }
}

/// Whether x + a, rounded, lies within `slack` of the midpoint between two
/// doubles, where a direction off by ~1e-14 can round the other way.
bool nearRoundingTie(double x, double a, double slack) {
  const double sum = x + a;
  const double back = sum - x;
  const double err = (x - (sum - back)) + (a - back);  // x + a == sum + err
  const double halfUlp = (up(std::fabs(sum)) - std::fabs(sum)) / 2.0;
  return std::fabs(halfUlp - std::fabs(err)) <= slack;
}

// The kernel's filter places samples with its own sin/cos and hands a
// sample whose least squared distance to a sender lies within 1e-6 * r^2 of
// r^2 (its kFilterBand) to the plain scan. Random sender sets almost never
// land there, so place the one sender to order: at distance r * sqrt(1 + g)
// from a chosen sample, in one of 12 directions. The chosen sample is the
// only one, or lane 37 of a 64-sample block. Away from the origin it is
// one whose coordinate rounds from near a tie, where the filter's point can
// land one ulp off the plain scan's: up to 2.2e-10 * r at 1e6 r, the worst
// case the band is sized for.
TEST(UncoveredFractionAtLeast, FilterBandFallsBackToTheExactTest) {
  constexpr double kBand = 1e-6;
  for (double r : {1.0, 500.0}) {
    for (double offset : {0.0, 6000.0, 1e6 * r}) {
      const Vec2 self{offset, -offset};
      for (int lane : {0, 37}) {
        const int samples = lane == 0 ? 1 : 64;
        int placed = 0;
        for (std::uint64_t seed = 0; placed < 100; ++seed) {
          ASSERT_LT(seed, 10'000'000u) << "r " << r << " offset " << offset;
          sim::Rng peek(seed);
          for (int skip = 0; skip < 2 * lane; ++skip) (void)peek.next();
          const double rho = r * std::sqrt(peek.uniform());
          const Vec2 step = rho * unitVector(peek.uniform(0.0, 2.0 * kPi));
          if (offset != 0.0 && !nearRoundingTie(self.x, step.x, 1e-14 * r) &&
              !nearRoundingTie(self.y, step.y, 1e-14 * r)) {
            continue;
          }
          ++placed;
          const Vec2 dir =
              unitVector(2.0 * kPi * static_cast<double>(seed % 12) / 12.0);
          for (double gap : {0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9,
                             kBand, -kBand, 2 * kBand, -2 * kBand}) {
            const std::vector<Vec2> covered{
                self + step + r * std::sqrt(1.0 + gap) * dir};
            sim::Rng refRng(seed);
            const double ref =
                referenceFraction(self, covered, r, refRng, samples);
            sim::Rng rng(seed);
            ASSERT_EQ(uncoveredFraction(self, covered, r, rng, samples), ref)
                << "r " << r << " offset " << offset << " seed " << seed
                << " lane " << lane << " gap " << gap;
            ASSERT_EQ(nextDraws(rng), nextDraws(refRng));
            sim::Rng verdictRng(seed);
            ASSERT_TRUE(uncoveredFractionAtLeast(self, covered, r, ref,
                                                 verdictRng, samples))
                << "r " << r << " offset " << offset << " seed " << seed
                << " lane " << lane << " gap " << gap;
          }
        }
      }
    }
  }
}

TEST(UncoveredFractionAtLeast, SettledVerdictsStillTakeEveryDraw) {
  const std::vector<Vec2> covered{{kR, 0}};
  for (double threshold : {0.0, -1.0, 1.5, std::nan("")}) {
    sim::Rng rng(13);
    sim::Rng expected(13);
    const bool verdict =
        uncoveredFractionAtLeast({0, 0}, covered, kR, threshold, rng, 512);
    EXPECT_EQ(verdict, threshold <= 0.0) << threshold;
    for (int i = 0; i < 2 * 512; ++i) (void)expected.next();
    EXPECT_EQ(nextDraws(rng), nextDraws(expected)) << threshold;
  }
}

TEST(UncoveredFractionDeath, RejectsBadArguments) {
  sim::Rng rng(12);
  EXPECT_DEATH((void)uncoveredFraction({0, 0}, {}, -1.0, rng), "Precondition");
  EXPECT_DEATH((void)uncoveredFraction({0, 0}, {}, kR, rng, 0),
               "Precondition");
  EXPECT_DEATH((void)uncoveredFractionAtLeast({0, 0}, {}, 0.0, 0.5, rng),
               "Precondition");
  EXPECT_DEATH((void)uncoveredFractionAtLeast({0, 0}, {}, kR, 0.5, rng, 0),
               "Precondition");
}

}  // namespace
}  // namespace manet::geom
