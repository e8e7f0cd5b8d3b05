#include <gtest/gtest.h>

#include <map>

#include "cluster/assignment.hpp"
#include "cluster/policy.hpp"
#include "experiment/runner.hpp"

namespace manet::cluster {
namespace {

using Adjacency = std::vector<std::vector<net::HostId>>;

constexpr net::HostId H(std::uint32_t id) { return net::HostId{id}; }

Adjacency fromEdges(std::size_t n,
                    const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                        edges) {
  Adjacency adj(n);
  for (auto [a, b] : edges) {
    adj[a].push_back(H(b));
    adj[b].push_back(H(a));
  }
  return adj;
}

std::map<net::HostId, std::vector<net::HostId>> graph(
    std::initializer_list<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
        rows) {
  std::map<net::HostId, std::vector<net::HostId>> adj;
  for (const auto& [node, neighbors] : rows) {
    auto& out = adj[H(node)];
    for (std::uint32_t nb : neighbors) out.push_back(H(nb));
  }
  return adj;
}

// ------------------------------------------------------------ assignRoles

TEST(AssignRoles, SingletonIsItsOwnHead) {
  const auto roles = assignRoles(Adjacency(1));
  ASSERT_EQ(roles.size(), 1u);
  EXPECT_EQ(roles[0].role, Role::kHead);
  EXPECT_EQ(roles[0].head, H(0));
}

TEST(AssignRoles, PairLowestIdLeads) {
  const auto roles = assignRoles(fromEdges(2, {{0, 1}}));
  EXPECT_EQ(roles[0].role, Role::kHead);
  EXPECT_EQ(roles[1].role, Role::kMember);
  EXPECT_EQ(roles[1].head, H(0));
}

TEST(AssignRoles, ChainAlternates) {
  // 0-1-2: 0 head, 1 member of 0, 2 head (no head neighbor).
  const auto roles = assignRoles(fromEdges(3, {{0, 1}, {1, 2}}));
  EXPECT_EQ(roles[0].role, Role::kHead);
  EXPECT_EQ(roles[2].role, Role::kHead);
  // 1 touches both clusters: it is the gateway between heads 0 and 2.
  EXPECT_EQ(roles[1].role, Role::kGateway);
  EXPECT_EQ(roles[1].head, H(0));
}

TEST(AssignRoles, CliqueHasOneHeadNoGateways) {
  const auto roles = assignRoles(
      fromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}));
  EXPECT_EQ(roles[0].role, Role::kHead);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(roles[i].role, Role::kMember) << i;
    EXPECT_EQ(roles[i].head, H(0));
  }
}

TEST(AssignRoles, HeadsFormIndependentSet) {
  // Random-ish graph; verify no two heads are adjacent and every member/
  // gateway has a head neighbor.
  const auto adj = fromEdges(
      8, {{0, 3}, {3, 4}, {4, 1}, {1, 5}, {5, 2}, {2, 6}, {6, 7}, {7, 0},
          {3, 5}});
  const auto roles = assignRoles(adj);
  for (std::size_t i = 0; i < adj.size(); ++i) {
    if (roles[i].role == Role::kHead) {
      for (net::HostId nb : adj[i]) {
        EXPECT_NE(roles[nb.value()].role, Role::kHead)
            << "adjacent heads " << i << " and " << nb.value();
      }
    } else {
      bool hasHeadNeighbor = false;
      for (net::HostId nb : adj[i]) {
        hasHeadNeighbor |= roles[nb.value()].role == Role::kHead;
      }
      EXPECT_TRUE(hasHeadNeighbor) << "uncovered node " << i;
      EXPECT_NE(roles[i].head, net::kInvalidHost);
    }
  }
}

TEST(AssignRoles, GatewayBetweenTwoHeads) {
  // Star-of-two-clusters: 0 and 1 are heads (not adjacent), 2 hears both.
  const auto roles = assignRoles(fromEdges(3, {{0, 2}, {1, 2}}));
  EXPECT_EQ(roles[0].role, Role::kHead);
  EXPECT_EQ(roles[1].role, Role::kHead);
  EXPECT_EQ(roles[2].role, Role::kGateway);
}

TEST(AssignRoles, GatewayViaForeignClusterNeighbor) {
  // 0(head)-2(member of 0)-3(member of... 3's neighbors: 2 only; no head
  // neighbor => 3 becomes head). 2 then bridges clusters 0 and 3.
  const auto roles = assignRoles(fromEdges(4, {{0, 1}, {0, 2}, {2, 3}}));
  EXPECT_EQ(roles[0].role, Role::kHead);
  EXPECT_EQ(roles[1].role, Role::kMember);
  EXPECT_EQ(roles[3].role, Role::kHead);
  EXPECT_EQ(roles[2].role, Role::kGateway);
}

TEST(AssignRoles, DisconnectedComponentsIndependent) {
  const auto roles = assignRoles(fromEdges(4, {{0, 1}, {2, 3}}));
  EXPECT_EQ(roles[0].role, Role::kHead);
  EXPECT_EQ(roles[1].role, Role::kMember);
  EXPECT_EQ(roles[2].role, Role::kHead);
  EXPECT_EQ(roles[3].role, Role::kMember);
  EXPECT_EQ(roles[3].head, H(2));
}

TEST(RoleNames, Distinct) {
  EXPECT_STRNE(roleName(Role::kHead), roleName(Role::kMember));
  EXPECT_STRNE(roleName(Role::kHead), roleName(Role::kGateway));
}

// ---------------------------------------------------------------- egoRole

/// HostView over an explicit global adjacency (ids need not be dense).
class GraphHost : public core::HostView {
 public:
  GraphHost(std::uint32_t self,
            std::map<net::HostId, std::vector<net::HostId>> adj)
      : self_(H(self)), adj_(std::move(adj)) {}

  net::HostId id() const override { return self_; }
  int neighborCount() const override {
    return static_cast<int>(adj_.at(self_).size());
  }
  std::vector<net::HostId> neighborIds() const override {
    return adj_.at(self_);
  }
  const std::vector<net::HostId>* neighborsOf(
      net::HostId h) const override {
    auto it = adj_.find(h);
    return it == adj_.end() ? nullptr : &it->second;
  }
  geom::Vec2 position() const override { return {}; }
  double radius() const override { return 500.0; }
  sim::Rng& rng() override { return rng_; }
  sim::TimePoint now() const override { return sim::kTimeZero; }

 private:
  net::HostId self_;
  std::map<net::HostId, std::vector<net::HostId>> adj_;
  sim::Rng rng_{1};
};

TEST(EgoRole, MatchesGlobalOnChain) {
  const auto adj = graph({{0, {1}}, {1, {0, 2}}, {2, {1}}});
  EXPECT_EQ(GraphHost(0, adj).id(), H(0));
  EXPECT_EQ(egoRole(GraphHost(0, adj)).role, Role::kHead);
  EXPECT_EQ(egoRole(GraphHost(1, adj)).role, Role::kGateway);
  EXPECT_EQ(egoRole(GraphHost(2, adj)).role, Role::kHead);
}

TEST(EgoRole, SparseGlobalIdsRemapCorrectly) {
  // Same chain with non-dense ids 10-57-99.
  const auto adj = graph({{10, {57}}, {57, {10, 99}}, {99, {57}}});
  const RoleInfo r10 = egoRole(GraphHost(10, adj));
  EXPECT_EQ(r10.role, Role::kHead);
  EXPECT_EQ(r10.head, H(10));
  const RoleInfo r57 = egoRole(GraphHost(57, adj));
  EXPECT_EQ(r57.role, Role::kGateway);
  EXPECT_EQ(r57.head, H(10));
  EXPECT_EQ(egoRole(GraphHost(99, adj)).role, Role::kHead);
}

TEST(EgoRole, IsolatedHostIsHead) {
  const auto adj = graph({{5, {}}});
  EXPECT_EQ(egoRole(GraphHost(5, adj)).role, Role::kHead);
}

TEST(EgoRole, MemberInsideClique) {
  const auto adj = graph({{0, {1, 2, 3}}, {1, {0, 2, 3}}, {2, {0, 1, 3}}, {3, {0, 1, 2}}});
  EXPECT_EQ(egoRole(GraphHost(3, adj)).role, Role::kMember);
  EXPECT_EQ(egoRole(GraphHost(3, adj)).head, H(0));
}

// ----------------------------------------------------------- ClusterPolicy

TEST(ClusterPolicy, MemberNeverRelays) {
  const auto adj = graph({{0, {1, 2}}, {1, {0, 2}}, {2, {0, 1}}});
  GraphHost host(2, adj);  // member of head 0, no bridging
  ClusterPolicy policy(3);
  auto d = policy.makeDecider(host, core::Reception{H(0), {100, 0}, sim::TimePoint{0}});
  EXPECT_FALSE(d->shouldProceed(host));
}

TEST(ClusterPolicy, HeadRelaysUnderInnerCounter) {
  const auto adj = graph({{0, {1}}, {1, {0}}});
  GraphHost host(0, adj);
  ClusterPolicy policy(3);
  auto d = policy.makeDecider(host, core::Reception{H(1), {100, 0}, sim::TimePoint{0}});
  EXPECT_TRUE(d->shouldProceed(host));
  EXPECT_TRUE(d->onDuplicate(host, core::Reception{H(1), {0, 100}, sim::TimePoint{1}}));
  EXPECT_FALSE(d->onDuplicate(host, core::Reception{H(1), {50, 50}, sim::TimePoint{2}}));
}

TEST(ClusterPolicy, GatewayRelays) {
  const auto adj = graph({{0, {2}}, {1, {2}}, {2, {0, 1}}});
  GraphHost host(2, adj);  // gateway between heads 0 and 1
  ClusterPolicy policy(3);
  auto d = policy.makeDecider(host, core::Reception{H(0), {100, 0}, sim::TimePoint{0}});
  EXPECT_TRUE(d->shouldProceed(host));
}

TEST(ClusterPolicy, Name) {
  EXPECT_EQ(ClusterPolicy(4).name(), "cluster(C=4)");
}

TEST(ClusterPolicyDeath, RejectsTrivialInnerCounter) {
  EXPECT_DEATH(ClusterPolicy{1}, "Precondition");
}

// ------------------------------------------------------------ integration

TEST(ClusterIntegration, RunsOnPaperWorkload) {
  experiment::ScenarioConfig config;
  config.mapUnits = 3;
  config.numHosts = 60;
  config.numBroadcasts = 15;
  config.scheme = experiment::SchemeSpec::clusterBased();
  config.seed = 17;
  const auto r = experiment::runScenario(config);
  EXPECT_GT(r.re(), 0.9);   // backbone still covers the network
  EXPECT_GT(r.srb(), 0.3);  // plain members stayed silent
}

TEST(ClusterIntegration, SavesMoreThanFloodingEverywhere) {
  for (int units : {1, 5}) {
    experiment::ScenarioConfig config;
    config.mapUnits = units;
    config.numHosts = 50;
    config.numBroadcasts = 10;
    config.seed = 23;
    config.scheme = experiment::SchemeSpec::clusterBased();
    const auto clusterRun = experiment::runScenario(config);
    EXPECT_GT(clusterRun.srb(), 0.0) << units;
  }
}

}  // namespace
}  // namespace manet::cluster
