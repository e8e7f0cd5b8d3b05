#include "cluster/assignment.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/assert.hpp"

namespace manet::cluster {

const char* roleName(Role role) {
  switch (role) {
    case Role::kHead: return "head";
    case Role::kGateway: return "gateway";
    case Role::kMember: return "member";
  }
  return "?";
}

std::vector<RoleInfo> assignRoles(
    const std::vector<std::vector<net::HostId>>& adjacency) {
  const std::size_t n = adjacency.size();
  std::vector<RoleInfo> roles(n);
  std::vector<bool> isHead(n, false);

  // Greedy in ascending id: a node becomes head unless a smaller-id
  // neighbor already did. Heads therefore form the lexicographically-first
  // maximal independent set — exactly what converged lowest-ID clustering
  // produces.
  for (std::size_t i = 0; i < n; ++i) {
    const net::HostId id{static_cast<std::uint32_t>(i)};
    net::HostId lowestHeadNeighbor = net::kInvalidHost;
    for (net::HostId nb : adjacency[i]) {
      MANET_EXPECTS(nb.value() < n);
      if (nb < id && isHead[nb.value()]) {
        lowestHeadNeighbor = std::min(lowestHeadNeighbor, nb);
      }
    }
    if (lowestHeadNeighbor == net::kInvalidHost) {
      isHead[i] = true;
      roles[i] = RoleInfo{Role::kHead, id};
    } else {
      roles[i] = RoleInfo{Role::kMember, lowestHeadNeighbor};
    }
  }

  // Gateways: non-heads adjacent to >= 2 heads, or to a node of a different
  // cluster.
  for (std::size_t i = 0; i < n; ++i) {
    if (roles[i].role == Role::kHead) continue;
    int headNeighbors = 0;
    bool bridges = false;
    for (net::HostId nb : adjacency[i]) {
      if (isHead[nb.value()]) ++headNeighbors;
      if (roles[nb.value()].head != roles[i].head) bridges = true;
    }
    if (headNeighbors >= 2 || bridges) roles[i].role = Role::kGateway;
  }
  return roles;
}

RoleInfo egoRole(const core::HostView& host) {
  // Collect the ego network: self, N_x, and each neighbor's advertised set.
  const net::HostId self = host.id();
  std::set<net::HostId> nodes{self};
  const std::vector<net::HostId> oneHop = host.neighborIds();
  std::map<net::HostId, std::set<net::HostId>> edges;

  auto addEdge = [&edges](net::HostId a, net::HostId b) {
    if (a == b) return;
    edges[a].insert(b);
    edges[b].insert(a);
  };

  for (net::HostId nb : oneHop) {
    nodes.insert(nb);
    addEdge(self, nb);
  }
  // Two-hop knowledge: neighbors' own neighbor sets (piggybacked in HELLOs,
  // or exact in oracle mode). For second-ring nodes also pull their sets if
  // available so gateway/headness of the ring resolves correctly.
  std::set<net::HostId> ring2;
  for (net::HostId nb : oneHop) {
    if (const auto* theirs = host.neighborsOf(nb)) {
      for (net::HostId two : *theirs) {
        nodes.insert(two);
        addEdge(nb, two);
        if (two != self) ring2.insert(two);
      }
    }
  }
  for (net::HostId two : ring2) {
    if (const auto* theirs = host.neighborsOf(two)) {
      for (net::HostId three : *theirs) {
        // Only keep edges among already-known nodes: we want the induced
        // subgraph, not an ever-growing frontier.
        if (nodes.contains(three)) addEdge(two, three);
      }
    }
  }

  // Remap sparse global ids to dense local ids, preserving order (the
  // algorithm is id-order sensitive, so the remap must be monotone).
  std::vector<net::HostId> sorted(nodes.begin(), nodes.end());
  std::map<net::HostId, net::HostId> local;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    local[sorted[i]] = net::HostId{static_cast<std::uint32_t>(i)};
  }

  std::vector<std::vector<net::HostId>> adjacency(sorted.size());
  for (const auto& [a, nbs] : edges) {
    for (net::HostId b : nbs) {
      adjacency[local[a].value()].push_back(local[b]);
    }
  }
  const std::vector<RoleInfo> roles = assignRoles(adjacency);
  RoleInfo mine = roles[local[self].value()];
  if (mine.head != net::kInvalidHost && mine.head.value() < sorted.size()) {
    mine.head = sorted[mine.head.value()];  // back to the global id space
  }
  return mine;
}

}  // namespace manet::cluster
