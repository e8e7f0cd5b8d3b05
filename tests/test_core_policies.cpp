#include "core/policies.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/policy.hpp"
#include "core/threshold.hpp"

namespace manet::core {
namespace {

/// Scriptable host stand-in: the tests place the host, set its neighbor
/// tables, and drive the decider directly — no simulator involved.
class FakeHost : public HostView {
 public:
  net::HostId id() const override { return id_; }
  int neighborCount() const override { return static_cast<int>(nx_.size()); }
  std::vector<net::HostId> neighborIds() const override { return nx_; }
  const std::vector<net::HostId>* neighborsOf(
      net::HostId h) const override {
    auto it = twoHop_.find(h);
    return it == twoHop_.end() ? nullptr : &it->second;
  }
  geom::Vec2 position() const override { return pos_; }
  double radius() const override { return 500.0; }
  sim::Rng& rng() override { return rng_; }
  sim::TimePoint now() const override { return now_; }

  net::HostId id_{};
  std::vector<net::HostId> nx_;
  std::map<net::HostId, std::vector<net::HostId>> twoHop_;
  geom::Vec2 pos_{0, 0};
  sim::Rng rng_{12345};
  sim::TimePoint now_{};
};

net::HostId H(std::uint32_t v) { return net::HostId{v}; }

std::vector<net::HostId> ids(std::initializer_list<std::uint32_t> vs) {
  std::vector<net::HostId> out;
  for (std::uint32_t v : vs) out.push_back(net::HostId{v});
  return out;
}

Reception from(std::uint32_t h, geom::Vec2 pos) {
  return Reception{net::HostId{h}, pos, {}};
}

// ------------------------------------------------------------- flooding

TEST(Flooding, AlwaysProceedsAndNeverCancels) {
  FakeHost host;
  FloodingPolicy policy;
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d->shouldProceed(host));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 100})));
  }
}

TEST(Flooding, Name) { EXPECT_EQ(FloodingPolicy{}.name(), "flooding"); }

// -------------------------------------------------------- probabilistic

TEST(Probabilistic, ZeroNeverProceeds) {
  FakeHost host;
  ProbabilisticPolicy policy(0.0);
  for (int i = 0; i < 20; ++i) {
    auto d = policy.makeDecider(host, from(1, {100, 0}));
    EXPECT_FALSE(d->shouldProceed(host));
  }
}

TEST(Probabilistic, OneAlwaysProceeds) {
  FakeHost host;
  ProbabilisticPolicy policy(1.0);
  for (int i = 0; i < 20; ++i) {
    auto d = policy.makeDecider(host, from(1, {100, 0}));
    EXPECT_TRUE(d->shouldProceed(host));
  }
}

TEST(Probabilistic, FrequencyTracksP) {
  FakeHost host;
  ProbabilisticPolicy policy(0.25);
  int proceeded = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    auto d = policy.makeDecider(host, from(1, {100, 0}));
    proceeded += d->shouldProceed(host) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(proceeded) / n, 0.25, 0.03);
}

TEST(Probabilistic, DuplicatesDoNotRevokeTheGamble) {
  FakeHost host;
  ProbabilisticPolicy policy(1.0);
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  ASSERT_TRUE(d->shouldProceed(host));
  EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 100})));
}

TEST(ProbabilisticDeath, RejectsOutOfRangeP) {
  EXPECT_DEATH(ProbabilisticPolicy{-0.1}, "Precondition");
  EXPECT_DEATH(ProbabilisticPolicy{1.1}, "Precondition");
}

// --------------------------------------------------------------- counter

TEST(Counter, ProceedsWhileUnderThreshold) {
  FakeHost host;
  CounterPolicy policy(3);  // inhibit at c >= 3
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d->shouldProceed(host));                    // c = 1
  EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 100})));   // c = 2
  EXPECT_FALSE(d->onDuplicate(host, from(3, {50, 50})));  // c = 3: cancel
}

TEST(Counter, ThresholdTwoCancelsOnFirstDuplicate) {
  FakeHost host;
  CounterPolicy policy(2);
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d->shouldProceed(host));
  EXPECT_FALSE(d->onDuplicate(host, from(2, {0, 100})));
}

TEST(Counter, ThresholdOneInhibitsImmediately) {
  // Degenerate but legal: C = 1 means the first hearing already reached
  // the threshold.
  FakeHost host;
  CounterPolicy policy(1);
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_FALSE(d->shouldProceed(host));
}

TEST(Counter, Name) { EXPECT_EQ(CounterPolicy{4}.name(), "C=4"); }

// ------------------------------------------------------ adaptive counter

TEST(AdaptiveCounter, UsesNeighborCountForThreshold) {
  FakeHost host;
  AdaptiveCounterPolicy policy(CounterThreshold::fromDigits("29"));
  // n = 1 -> C = 2: first duplicate cancels.
  host.nx_ = ids({10});
  auto d1 = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d1->shouldProceed(host));
  EXPECT_FALSE(d1->onDuplicate(host, from(2, {0, 100})));
  // n = 2 -> C = 9: many duplicates tolerated.
  host.nx_ = ids({10, 11});
  auto d2 = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d2->shouldProceed(host));
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(d2->onDuplicate(host, from(2, {0, 100}))) << i;  // c = 2..8
  }
  EXPECT_FALSE(d2->onDuplicate(host, from(3, {9, 9})));  // c = 9: cancel
}

TEST(AdaptiveCounter, ReactsToNeighborhoodChangesMidPacket) {
  // The threshold is re-evaluated against the *current* n on every
  // duplicate: if neighbors vanish, the host becomes more eager to relay.
  FakeHost host;
  host.nx_ = ids({10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21});  // n = 12
  AdaptiveCounterPolicy policy(CounterThreshold::suggested());  // C(12) = 2
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d->shouldProceed(host));
  host.nx_ = ids({10});  // suddenly sparse: C(1) = 2 still, counter 2 => cancel
  EXPECT_FALSE(d->onDuplicate(host, from(2, {0, 100})));
}

TEST(AdaptiveCounter, SuggestedFunctionForcedRelayInSparseness) {
  // n = 3 -> C(3) = 4: the host survives two duplicates (c=3 < 4).
  FakeHost host;
  host.nx_ = ids({10, 11, 12});
  AdaptiveCounterPolicy policy(CounterThreshold::suggested());
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d->shouldProceed(host));
  EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 100})));
  EXPECT_TRUE(d->onDuplicate(host, from(3, {50, 50})));
  EXPECT_FALSE(d->onDuplicate(host, from(4, {70, 20})));
}

TEST(AdaptiveCounter, DefaultLabel) {
  EXPECT_EQ(AdaptiveCounterPolicy(CounterThreshold::suggested()).name(), "AC");
}

// --------------------------------------------------------------- distance

TEST(Distance, NearbySenderInhibitsImmediately) {
  FakeHost host;  // at origin
  DistancePolicy policy(100.0);
  auto d = policy.makeDecider(host, from(1, {30, 0}));  // 30 m away
  EXPECT_FALSE(d->shouldProceed(host));
}

TEST(Distance, FarSenderAllowsRelay) {
  FakeHost host;
  DistancePolicy policy(100.0);
  auto d = policy.makeDecider(host, from(1, {400, 0}));
  EXPECT_TRUE(d->shouldProceed(host));
}

TEST(Distance, TracksMinimumOverDuplicates) {
  FakeHost host;
  DistancePolicy policy(100.0);
  auto d = policy.makeDecider(host, from(1, {400, 0}));
  EXPECT_TRUE(d->shouldProceed(host));
  EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 200})));   // still >= 100
  EXPECT_FALSE(d->onDuplicate(host, from(3, {50, 0})));   // 50 < 100: cancel
}

TEST(Distance, ZeroThresholdNeverInhibits) {
  FakeHost host;
  DistancePolicy policy(0.0);
  auto d = policy.makeDecider(host, from(1, {0, 0}));  // same position!
  EXPECT_TRUE(d->shouldProceed(host));
}

// --------------------------------------------------------------- location

TEST(Location, ColocatedSenderLeavesNoAdditionalCoverage) {
  FakeHost host;
  LocationPolicy policy(0.01);
  auto d = policy.makeDecider(host, from(1, {0, 0}));
  EXPECT_FALSE(d->shouldProceed(host));
}

TEST(Location, BorderSenderLeavesMuchCoverage) {
  FakeHost host;
  LocationPolicy policy(0.1871);
  auto d = policy.makeDecider(host, from(1, {500, 0}));  // ~61% uncovered
  EXPECT_TRUE(d->shouldProceed(host));
}

TEST(Location, AccumulatedSendersEventuallyInhibit) {
  FakeHost host;
  LocationPolicy policy(0.1871);
  auto d = policy.makeDecider(host, from(1, {500, 0}));
  ASSERT_TRUE(d->shouldProceed(host));
  // Surround the host: residual uncovered area collapses.
  EXPECT_FALSE(d->onDuplicate(host, from(2, {-500, 0})) &&
               d->onDuplicate(host, from(3, {0, 500})) &&
               d->onDuplicate(host, from(4, {0, -500})) &&
               d->onDuplicate(host, from(5, {0, 0})));
}

/// True when `after` is `before` advanced by exactly `draws` draws.
bool advancedBy(sim::Rng before, sim::Rng after, int draws) {
  for (int i = 0; i < draws; ++i) (void)before.next();
  for (int i = 0; i < 4; ++i) {
    if (before.next() != after.next()) return false;
  }
  return true;
}

TEST(Location, ZeroThresholdAlwaysProceeds) {
  // The verdict settles before the first sample, but the decision still
  // takes all 2 * 512 draws: state fingerprints hash the scheme Rng.
  FakeHost host;
  LocationPolicy policy(0.0);
  auto d = policy.makeDecider(host, from(1, {0, 0}));
  sim::Rng before = host.rng_;
  EXPECT_TRUE(d->shouldProceed(host));
  EXPECT_TRUE(advancedBy(before, host.rng_, 2 * 512));
  before = host.rng_;
  EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 0})));
  EXPECT_TRUE(advancedBy(before, host.rng_, 2 * 512));
}

// ------------------------------------------------------ adaptive location

TEST(AdaptiveLocation, SparseNeighborhoodForcesRelay) {
  FakeHost host;
  host.nx_ = ids({10, 11});  // n = 2 <= n1 = 6 -> A(n) = 0
  AdaptiveLocationPolicy policy(AreaThreshold::suggested());
  auto d = policy.makeDecider(host, from(1, {0, 0}));  // zero new coverage!
  EXPECT_TRUE(d->shouldProceed(host));
  EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 0})));
}

TEST(AdaptiveLocation, ForcedRelayTakesNoDraws) {
  FakeHost host;
  host.nx_ = ids({10, 11, 12});  // n = 3 <= n1: A(n) = 0, no sampling at all
  AdaptiveLocationPolicy policy(AreaThreshold::suggested());
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  const sim::Rng before = host.rng_;
  EXPECT_TRUE(d->shouldProceed(host));
  EXPECT_TRUE(d->onDuplicate(host, from(2, {0, 100})));
  EXPECT_TRUE(advancedBy(before, host.rng_, 0));
}

TEST(AdaptiveLocation, CrowdedNeighborhoodInhibitsLowCoverage) {
  FakeHost host;
  for (std::uint32_t i = 0; i < 15; ++i) host.nx_.push_back(H(100 + i));  // n = 15
  AdaptiveLocationPolicy policy(AreaThreshold::suggested());  // A = 0.187
  auto d = policy.makeDecider(host, from(1, {100, 0}));  // ~10% uncovered
  EXPECT_FALSE(d->shouldProceed(host));
}

TEST(AdaptiveLocation, CrowdedButUsefulRelayProceeds) {
  FakeHost host;
  for (std::uint32_t i = 0; i < 15; ++i) host.nx_.push_back(H(100 + i));
  AdaptiveLocationPolicy policy(AreaThreshold::suggested());
  auto d = policy.makeDecider(host, from(1, {500, 0}));  // ~61% > 0.187
  EXPECT_TRUE(d->shouldProceed(host));
}

TEST(AdaptiveLocation, DefaultLabel) {
  EXPECT_EQ(AdaptiveLocationPolicy(AreaThreshold::suggested()).name(), "AL");
}

// ------------------------------------------------------ neighbor coverage

TEST(NeighborCoverage, InhibitsWhenSenderCoversEverything) {
  FakeHost host;
  host.nx_ = ids({1, 2, 3});
  host.twoHop_[H(1)] = ids({2, 3, 99});  // sender 1 already covers 2 and 3
  NeighborCoveragePolicy policy;
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_FALSE(d->shouldProceed(host));  // T = {2,3} - {2,3,99} - {1} = {}
}

TEST(NeighborCoverage, ProceedsWhileSomeNeighborUncovered) {
  FakeHost host;
  host.nx_ = ids({1, 2, 3});
  host.twoHop_[H(1)] = ids({2});  // 3 not covered by sender 1
  NeighborCoveragePolicy policy;
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d->shouldProceed(host));
}

TEST(NeighborCoverage, DuplicatesErodePendingSet) {
  FakeHost host;
  host.nx_ = ids({1, 2, 3, 4});
  host.twoHop_[H(1)] = ids({2});
  host.twoHop_[H(3)] = ids({4});
  NeighborCoveragePolicy policy;
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  ASSERT_TRUE(d->shouldProceed(host));  // T = {3, 4}
  EXPECT_FALSE(d->onDuplicate(host, from(3, {0, 100})));  // covers 3 and 4
}

TEST(NeighborCoverage, UnknownSenderOnlyRemovesItself) {
  FakeHost host;
  host.nx_ = ids({1, 2});
  NeighborCoveragePolicy policy;  // no two-hop knowledge at all
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_TRUE(d->shouldProceed(host));                   // T = {2}
  EXPECT_FALSE(d->onDuplicate(host, from(2, {0, 1})));   // T = {}
}

TEST(NeighborCoverage, IsolatedHostInhibits) {
  FakeHost host;  // no neighbors at all
  NeighborCoveragePolicy policy;
  auto d = policy.makeDecider(host, from(1, {100, 0}));
  EXPECT_FALSE(d->shouldProceed(host));
}

TEST(NeighborCoverage, SenderOutsideNxStillSubtractsItsSet) {
  FakeHost host;
  host.nx_ = ids({2, 3});
  host.twoHop_[H(9)] = ids({2, 3});  // we know 9's neighborhood (e.g. stale entry)
  NeighborCoveragePolicy policy;
  auto d = policy.makeDecider(host, from(9, {100, 0}));
  EXPECT_FALSE(d->shouldProceed(host));
}

}  // namespace
}  // namespace manet::core
