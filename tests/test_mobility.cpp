#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/circle.hpp"
#include "mobility/map.hpp"
#include "mobility/model.hpp"
#include "mobility/random_roam.hpp"
#include "sim/random.hpp"

namespace manet::mobility {
namespace {

using geom::Vec2;
using sim::kSecond;

constexpr sim::TimePoint T(sim::Duration sinceStart) {
  return sim::kTimeZero + sinceStart;
}

TEST(MapSpec, SquareBuilder) {
  const MapSpec m = MapSpec::square(5);
  EXPECT_DOUBLE_EQ(m.width, 2500.0);
  EXPECT_DOUBLE_EQ(m.height, 2500.0);
}

TEST(MapSpec, ContainsAndClamp) {
  const MapSpec m = MapSpec::square(1);
  EXPECT_TRUE(m.contains({0, 0}));
  EXPECT_TRUE(m.contains({500, 500}));
  EXPECT_FALSE(m.contains({501, 0}));
  EXPECT_FALSE(m.contains({0, -1}));
  EXPECT_EQ(m.clamp({600, -50}), (Vec2{500, 0}));
}

TEST(MapSpec, UniformPointsStayInside) {
  const MapSpec m = MapSpec::square(3);
  sim::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(m.contains(m.uniformPoint(rng)));
  }
}

TEST(SpeedConversion, KmhToMps) {
  EXPECT_DOUBLE_EQ(kmhToMps(36.0), 10.0);
  EXPECT_DOUBLE_EQ(kmhToMps(0.0), 0.0);
}

TEST(Stationary, NeverMoves) {
  Stationary s({100, 200});
  EXPECT_EQ(s.positionAt(sim::kTimeZero), (Vec2{100, 200}));
  EXPECT_EQ(s.positionAt(T(1000 * kSecond)), (Vec2{100, 200}));
}

TEST(RandomRoam, StaysWithinMap) {
  const MapSpec map = MapSpec::square(3);
  RoamParams params;
  params.maxSpeedMps = kmhToMps(110.0);
  RandomRoam roam(map, {750, 750}, params, sim::Rng(5));
  for (sim::TimePoint t = sim::kTimeZero; t <= T(600 * kSecond); t += kSecond) {
    const Vec2 p = roam.positionAt(t);
    EXPECT_TRUE(map.contains(p)) << "t=" << t.ticks() << " p=(" << p.x << "," << p.y
                                 << ")";
  }
}

TEST(RandomRoam, RespectsMaxSpeedBetweenQueries) {
  const MapSpec map = MapSpec::square(11);
  RoamParams params;
  params.maxSpeedMps = kmhToMps(50.0);
  RandomRoam roam(map, {2750, 2750}, params, sim::Rng(6));
  Vec2 prev = roam.positionAt(sim::kTimeZero);
  for (sim::TimePoint t = T(kSecond); t <= T(300 * kSecond); t += kSecond) {
    const Vec2 cur = roam.positionAt(t);
    // One second apart: displacement can never exceed maxSpeed * 1 s (a
    // reflection only folds the path, it cannot lengthen it... but it can
    // shorten the net displacement).
    EXPECT_LE(geom::distance(prev, cur), params.maxSpeedMps + 1e-9);
    prev = cur;
  }
}

TEST(RandomRoam, ZeroMaxSpeedMeansStationary) {
  const MapSpec map = MapSpec::square(3);
  RoamParams params;
  params.maxSpeedMps = 0.0;
  RandomRoam roam(map, {100, 900}, params, sim::Rng(7));
  const Vec2 start = roam.positionAt(sim::kTimeZero);
  EXPECT_EQ(roam.positionAt(T(500 * kSecond)), start);
}

TEST(RandomRoam, DeterministicForSameSeed) {
  const MapSpec map = MapSpec::square(5);
  RoamParams params;
  params.maxSpeedMps = kmhToMps(50.0);
  RandomRoam a(map, {1000, 1000}, params, sim::Rng(8));
  RandomRoam b(map, {1000, 1000}, params, sim::Rng(8));
  for (sim::TimePoint t = sim::kTimeZero; t <= T(200 * kSecond); t += 7 * kSecond) {
    EXPECT_EQ(a.positionAt(t), b.positionAt(t));
  }
}

TEST(RandomRoam, MovesEventually) {
  const MapSpec map = MapSpec::square(5);
  RoamParams params;
  params.maxSpeedMps = kmhToMps(50.0);
  RandomRoam roam(map, {1000, 1000}, params, sim::Rng(9));
  const Vec2 start = roam.positionAt(sim::kTimeZero);
  double maxDisplacement = 0.0;
  for (sim::TimePoint t = sim::kTimeZero; t <= T(300 * kSecond); t += 10 * kSecond) {
    maxDisplacement =
        std::max(maxDisplacement, geom::distance(start, roam.positionAt(t)));
  }
  EXPECT_GT(maxDisplacement, 10.0);
}

TEST(RandomRoam, QueriesAtSameTimeAreStable) {
  const MapSpec map = MapSpec::square(3);
  RoamParams params;
  params.maxSpeedMps = kmhToMps(30.0);
  RandomRoam roam(map, {500, 500}, params, sim::Rng(10));
  const Vec2 a = roam.positionAt(T(17 * kSecond));
  const Vec2 b = roam.positionAt(T(17 * kSecond));
  EXPECT_EQ(a, b);
}

TEST(RandomRoamDeath, RejectsBackwardQueries) {
  const MapSpec map = MapSpec::square(3);
  RandomRoam roam(map, {500, 500}, RoamParams{}, sim::Rng(11));
  (void)roam.positionAt(T(10 * kSecond));
  EXPECT_DEATH((void)roam.positionAt(T(5 * kSecond)), "Precondition");
}

TEST(RandomRoam, TurnDurationsWithinConfiguredRange) {
  // A turn lasts 1..100 s; with a tight window the velocity must be
  // re-drawn frequently. We only verify the model doesn't get stuck.
  const MapSpec map = MapSpec::square(3);
  RoamParams params;
  params.maxSpeedMps = kmhToMps(30.0);
  params.minTurnDuration = 1 * kSecond;
  params.maxTurnDuration = 2 * kSecond;
  RandomRoam roam(map, {750, 750}, params, sim::Rng(12));
  Vec2 prevVelocity = roam.currentVelocity();
  int changes = 0;
  for (sim::TimePoint t = sim::kTimeZero; t <= T(60 * kSecond); t += kSecond) {
    (void)roam.positionAt(t);
    if (!(roam.currentVelocity() == prevVelocity)) {
      ++changes;
      prevVelocity = roam.currentVelocity();
    }
  }
  EXPECT_GT(changes, 20);  // ~40 turns expected in 60 s
}

/// RandomRoam's integrator as it stood before the in-turn fast path: every
/// step goes through reflect and clamp. The bit-exact reference for
/// RandomRoam::positionAt. Also counts reflections per edge (x = 0, x = W,
/// y = 0, y = H) and the steps whose raw coordinate was -0.0 on a
/// zero-length axis, so the tests can show they reach every case.
class ReferenceRoam {
 public:
  ReferenceRoam(MapSpec map, Vec2 start, RoamParams params, sim::Rng rng)
      : map_(map), params_(params), rng_(rng), position_(map.clamp(start)) {
    beginTurn();
  }

  Vec2 positionAt(sim::TimePoint t) {
    while (t >= turnEnd_) {
      advance(turnEnd_ - lastQuery_);
      lastQuery_ = turnEnd_;
      beginTurn();
    }
    advance(t - lastQuery_);
    lastQuery_ = t;
    return position_;
  }

  sim::TimePoint turnEnd() const { return turnEnd_; }
  Vec2 velocity() const { return velocity_; }

  int reflections[4] = {};
  int negativeZeroSteps = 0;

 private:
  void beginTurn() {
    const double direction = rng_.uniform(0.0, 2.0 * geom::kPi);
    const double speed = rng_.uniform(0.0, params_.maxSpeedMps);
    velocity_ = speed * geom::unitVector(direction);
    turnEnd_ = lastQuery_ + rng_.uniformDuration(params_.minTurnDuration,
                                                 params_.maxTurnDuration);
  }

  double reflect(double value, double limit, double& velocity, int edge) {
    if (limit <= 0.0) {
      negativeZeroSteps += (value == 0.0 && std::signbit(value)) ? 1 : 0;
      return 0.0;
    }
    while (value < 0.0 || value > limit) {
      if (value < 0.0) {
        ++reflections[edge];
        value = -value;
        velocity = -velocity;
      } else {
        ++reflections[edge + 1];
        value = 2.0 * limit - value;
        velocity = -velocity;
      }
    }
    return value;
  }

  void advance(sim::Duration dt) {
    if (dt <= sim::Duration{}) return;
    const double seconds = sim::toSeconds(dt);
    Vec2 p = position_ + velocity_ * seconds;
    p.x = reflect(p.x, map_.width, velocity_.x, 0);
    p.y = reflect(p.y, map_.height, velocity_.y, 2);
    position_ = map_.clamp(p);
  }

  MapSpec map_;
  RoamParams params_;
  sim::Rng rng_;
  Vec2 position_;
  Vec2 velocity_{0.0, 0.0};
  sim::TimePoint turnEnd_{};
  sim::TimePoint lastQuery_{};
};

/// Bitwise equality: tells +0.0 from -0.0, unlike operator==.
bool sameBits(Vec2 a, Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) ==
             std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

int totalReflections(const ReferenceRoam& ref) {
  return ref.reflections[0] + ref.reflections[1] + ref.reflections[2] +
         ref.reflections[3];
}

/// The next query time of a random cadence after `t`: mostly short steps,
/// some long ones across several turns, repeats of the same time, and steps
/// landing exactly on, just before and just after `ref`'s turn end.
sim::TimePoint nextQueryTime(sim::TimePoint t, const ReferenceRoam& ref,
                             sim::Rng& cadence) {
  const auto pick = cadence.uniformInt(0, 9);
  if (pick == 0) {
    return ref.turnEnd() + sim::Duration{cadence.uniformInt(-1, 1)};
  }
  if (pick == 1) {
    return t + cadence.uniformDuration(sim::kSecond, 5 * sim::kSecond);
  }
  if (pick == 2) return t;  // a repeat of the same time
  return t + cadence.uniformDuration(sim::kMicrosecond,
                                     50 * sim::kMillisecond);
}

/// Queries `roam` and `ref` side by side at a random cadence (see
/// nextQueryTime). Returns the number of queries whose bits differ.
int mismatchesAtRandomCadence(RandomRoam& roam, ReferenceRoam& ref,
                              sim::Rng& cadence, int queries) {
  int mismatches = 0;
  sim::TimePoint t = sim::kTimeZero;
  for (int q = 0; q < queries; ++q) {
    t = nextQueryTime(t, ref, cadence);
    const Vec2 got = roam.positionAt(t);
    const Vec2 want = ref.positionAt(t);
    mismatches += sameBits(got, want) ? 0 : 1;
  }
  return mismatches;
}

/// Feeds the same random cadence to `ref` one query at a time and to
/// `roam` as replay() lists of 1 to 40 times, with a single positionAt
/// between some lists. `withSteps` passes each list's steps between
/// consecutive times too, as ModelPositions does. Returns the number of
/// answers whose bits differ.
int replayMismatches(RandomRoam& roam, ReferenceRoam& ref, sim::Rng& cadence,
                     int queries, bool withSteps) {
  int mismatches = 0;
  sim::TimePoint t = sim::kTimeZero;
  std::vector<sim::TimePoint> epochs;
  std::vector<double> steps;
  for (int q = 0; q < queries;) {
    epochs.clear();
    steps.clear();
    Vec2 want{};
    const auto length = cadence.uniformInt(1, 40);
    for (int k = 0; k < length; ++k, ++q) {
      t = nextQueryTime(t, ref, cadence);
      // The first step is not read; a NaN there would show if it were.
      steps.push_back(epochs.empty()
                          ? std::numeric_limits<double>::quiet_NaN()
                          : sim::toSeconds(t - epochs.back()));
      epochs.push_back(t);
      want = ref.positionAt(t);
    }
    const Vec2 got = withSteps ? roam.replay(epochs, steps) : roam.replay(epochs);
    mismatches += sameBits(got, want) ? 0 : 1;
    if (cadence.uniformInt(0, 3) == 0) {
      t += cadence.uniformDuration(sim::kMicrosecond, sim::kSecond);
      mismatches += sameBits(roam.positionAt(t), ref.positionAt(t)) ? 0 : 1;
    }
  }
  return mismatches;
}

TEST(RandomRoam, FastPathMatchesReflectAndClampBitForBit) {
  RoamParams params;
  params.maxSpeedMps = 150.0;  // many wall hits on small maps
  params.minTurnDuration = 100 * sim::kMillisecond;
  params.maxTurnDuration = 2 * kSecond;
  int reflections[4] = {};
  for (const MapSpec map : {MapSpec::square(1), MapSpec{1500.0, 400.0}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      sim::Rng rng(seed);
      const Vec2 start = map.uniformPoint(rng);
      RandomRoam roam(map, start, params, rng.fork(1));
      ReferenceRoam ref(map, start, params, rng.fork(1));
      sim::Rng cadence = rng.fork(2);
      EXPECT_EQ(mismatchesAtRandomCadence(roam, ref, cadence, 2000), 0)
          << "map " << map.width << "x" << map.height << " seed " << seed;
      for (int edge = 0; edge < 4; ++edge) {
        reflections[edge] += ref.reflections[edge];
      }
    }
  }
  for (int edge = 0; edge < 4; ++edge) {
    EXPECT_GT(reflections[edge], 0) << "edge " << edge;
  }
}

/// Signed zeros, from hosts that start at (-0.0, -0.0). On a zero-length
/// axis reflect() returns +0.0 for any coordinate, while a bare range check
/// would let a -0.0 step through (-0.0 >= 0.0 holds); zero speed produces
/// exactly that step. On a map of positive size, a repeat query at the same
/// time must not touch the position: -0.0 + 0.0 * v may be +0.0.
TEST(RandomRoam, FastPathMatchesReferenceOnSignedZeros) {
  int negativeZeroSteps = 0;
  for (const MapSpec map : {MapSpec{0.0, 500.0}, MapSpec{500.0, 0.0},
                            MapSpec{0.0, 0.0}, MapSpec{500.0, 500.0}}) {
    for (const double maxSpeed : {0.0, 20.0}) {
      RoamParams params;
      params.maxSpeedMps = maxSpeed;
      params.minTurnDuration = 100 * sim::kMillisecond;
      params.maxTurnDuration = kSecond;
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        sim::Rng rng(seed);
        const Vec2 start{-0.0, -0.0};
        RandomRoam roam(map, start, params, rng.fork(1));
        ReferenceRoam ref(map, start, params, rng.fork(1));
        sim::Rng cadence = rng.fork(2);
        EXPECT_EQ(mismatchesAtRandomCadence(roam, ref, cadence, 300), 0)
            << "map " << map.width << "x" << map.height << " speed "
            << maxSpeed << " seed " << seed;
        negativeZeroSteps += ref.negativeZeroSteps;
      }
    }
  }
  EXPECT_GT(negativeZeroSteps, 0);
}

/// replay() over a list of epochs gives the bits of one positionAt per
/// epoch, whatever the list's length: through turn ends (at, and 1 us
/// around, them), reflections off all four edges, maps of zero size on
/// either axis, and hosts that start at (-0.0, -0.0).
TEST(RandomRoam, ReplayMatchesPositionAtBitForBit) {
  int reflections[4] = {};
  int negativeZeroSteps = 0;
  for (const MapSpec map :
       {MapSpec::square(1), MapSpec{1500.0, 400.0}, MapSpec{0.0, 500.0},
        MapSpec{500.0, 0.0}, MapSpec{0.0, 0.0}}) {
    for (const double maxSpeed : {0.0, 150.0}) {
      RoamParams params;
      params.maxSpeedMps = maxSpeed;
      params.minTurnDuration = 100 * sim::kMillisecond;
      params.maxTurnDuration = 2 * kSecond;
      for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const bool withSteps = seed > 12;
        sim::Rng rng(withSteps ? seed - 12 : seed);
        const Vec2 start =
            seed % 2 == 0 ? Vec2{-0.0, -0.0} : map.uniformPoint(rng);
        RandomRoam roam(map, start, params, rng.fork(1));
        ReferenceRoam ref(map, start, params, rng.fork(1));
        sim::Rng cadence = rng.fork(2);
        EXPECT_EQ(replayMismatches(roam, ref, cadence, 1500, withSteps), 0)
            << "map " << map.width << "x" << map.height << " speed "
            << maxSpeed << " seed " << seed;
        for (int edge = 0; edge < 4; ++edge) {
          reflections[edge] += ref.reflections[edge];
        }
        negativeZeroSteps += ref.negativeZeroSteps;
      }
    }
  }
  for (int edge = 0; edge < 4; ++edge) {
    EXPECT_GT(reflections[edge], 0) << "edge " << edge;
  }
  EXPECT_GT(negativeZeroSteps, 0);
}

/// replay() over logs as long as ModelPositions keeps (200 to 4,096
/// strictly increasing epochs, 1 us to 5 ms apart, with their steps): each
/// turn's straight run, the runs that end off the map and fall back to the
/// checked steps (on the 1x1 map at 150 m/s), and times exactly at a turn
/// end, also as a list's last, all keep the bits and the turn of one
/// positionAt per epoch.
TEST(RandomRoam, LongReplayListsMatchPositionAtBitForBit) {
  int fallbacks = 0;       // in-turn steps of a list that reflect
  int listsAtTurnEnd = 0;  // lists with a time exactly at a turn end
  int listsEndingAtTurnEnd = 0;
  const std::pair<MapSpec, double> cases[] = {
      {MapSpec::square(1), 150.0}, {MapSpec::square(11), kmhToMps(110.0)}};
  for (const auto& [map, maxSpeed] : cases) {
    RoamParams params;
    params.maxSpeedMps = maxSpeed;
    params.minTurnDuration = 100 * sim::kMillisecond;
    params.maxTurnDuration = 2 * kSecond;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      sim::Rng rng(seed);
      const Vec2 start = map.uniformPoint(rng);
      RandomRoam roam(map, start, params, rng.fork(1));
      ReferenceRoam ref(map, start, params, rng.fork(1));
      sim::Rng cadence = rng.fork(2);
      sim::TimePoint t = sim::kTimeZero;
      std::vector<sim::TimePoint> epochs;
      std::vector<double> steps;
      for (int list = 0; list < 8; ++list) {
        epochs.clear();
        steps.clear();
        bool atTurnEnd = false;
        bool endsAtTurnEnd = false;
        Vec2 want{};
        const auto length = cadence.uniformInt(200, 4096);
        for (int k = 0; k < length && !endsAtTurnEnd; ++k) {
          const sim::TimePoint end = ref.turnEnd();
          sim::TimePoint next =
              t + cadence.uniformDuration(sim::kMicrosecond,
                                          5 * sim::kMillisecond);
          // Half the steps that reach the turn end stop exactly on it, and
          // a quarter of those past the 200th end the list there.
          if (next > end && cadence.uniformInt(0, 1) == 0) next = end;
          atTurnEnd = atTurnEnd || next == end;
          endsAtTurnEnd =
              next == end && k >= 199 && cadence.uniformInt(0, 3) == 0;
          steps.push_back(k == 0 ? std::numeric_limits<double>::quiet_NaN()
                                 : sim::toSeconds(next - t));
          epochs.push_back(next);
          const int reflected = totalReflections(ref);
          want = ref.positionAt(next);
          fallbacks +=
              k > 0 && ref.turnEnd() == end && totalReflections(ref) > reflected
                  ? 1
                  : 0;
          t = next;
        }
        EXPECT_TRUE(sameBits(roam.replay(epochs, steps), want))
            << "map " << map.width << " seed " << seed << " list " << list;
        EXPECT_TRUE(sameBits(roam.currentVelocity(), ref.velocity()))
            << "map " << map.width << " seed " << seed << " list " << list;
        listsAtTurnEnd += atTurnEnd ? 1 : 0;
        listsEndingAtTurnEnd += endsAtTurnEnd ? 1 : 0;
      }
    }
  }
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(listsAtTurnEnd, 0);
  EXPECT_GT(listsEndingAtTurnEnd, 0);
}

/// A repeated time in a replay list is a zero step, and must leave a -0.0
/// coordinate alone as positionAt does (-0.0 + 0.0 * v is +0.0 for v > 0):
/// hosts that start at (-0.0, -0.0) replay repeats of their first query
/// time, through both overloads, then lists that move on.
TEST(RandomRoam, ReplayOfRepeatedTimesKeepsSignedZeros) {
  const sim::TimePoint t0 = sim::kTimeZero;
  const sim::TimePoint t1 = T(sim::kMillisecond);
  const sim::TimePoint t2 = T(2 * sim::kMillisecond);
  const std::vector<std::vector<sim::TimePoint>> lists = {
      {t0, t0}, {t0, t0, t0}, {t0, t1, t1}, {t1, t2, t2}};
  int negativeZeroAnswers = 0;
  for (const double maxSpeed : {0.0, 20.0}) {
    RoamParams params;
    params.maxSpeedMps = maxSpeed;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const bool withSteps = seed > 8;
      sim::Rng rng(seed);
      const MapSpec map = MapSpec::square(1);
      const Vec2 start{-0.0, -0.0};
      RandomRoam roam(map, start, params, rng.fork(1));
      ReferenceRoam ref(map, start, params, rng.fork(1));
      for (const std::vector<sim::TimePoint>& times : lists) {
        std::vector<double> steps{0.0};
        Vec2 want = ref.positionAt(times[0]);
        for (std::size_t k = 1; k < times.size(); ++k) {
          steps.push_back(sim::toSeconds(times[k] - times[k - 1]));
          want = ref.positionAt(times[k]);
        }
        const Vec2 got =
            withSteps ? roam.replay(times, steps) : roam.replay(times);
        EXPECT_TRUE(sameBits(got, want))
            << "speed " << maxSpeed << " seed " << seed << " at "
            << sim::toSeconds(times.back()) << " s";
        negativeZeroAnswers +=
            std::signbit(want.x) && want.x == 0.0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(negativeZeroAnswers, 0);
}

}  // namespace
}  // namespace manet::mobility
