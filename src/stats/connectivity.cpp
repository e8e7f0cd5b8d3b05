#include "stats/connectivity.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace manet::stats {
namespace {

std::vector<std::size_t> bfs(const std::vector<geom::Vec2>& positions,
                             double radius, std::size_t source) {
  MANET_EXPECTS(source < positions.size());
  MANET_EXPECTS(radius > 0.0);
  const double r2 = radius * radius;
  std::vector<bool> visited(positions.size(), false);
  std::vector<std::size_t> reached;
  std::queue<std::size_t> frontier;
  visited[source] = true;
  frontier.push(source);
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (std::size_t v = 0; v < positions.size(); ++v) {
      if (visited[v]) continue;
      if (geom::distanceSquared(positions[u], positions[v]) <= r2) {
        visited[v] = true;
        reached.push_back(v);
        frontier.push(v);
      }
    }
  }
  return reached;  // ascending discovery order; excludes source
}

}  // namespace

int reachableCount(const std::vector<geom::Vec2>& positions, double radius,
                   std::size_t source) {
  return static_cast<int>(bfs(positions, radius, source).size());
}

std::vector<std::size_t> reachableSet(const std::vector<geom::Vec2>& positions,
                                      double radius, std::size_t source) {
  auto reached = bfs(positions, radius, source);
  std::sort(reached.begin(), reached.end());
  return reached;
}

std::vector<int> componentLabels(const std::vector<geom::Vec2>& positions,
                                 double radius) {
  std::vector<int> labels(positions.size(), -1);
  int next = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (labels[i] != -1) continue;
    labels[i] = next;
    for (std::size_t j : bfs(positions, radius, i)) labels[j] = next;
    ++next;
  }
  return labels;
}

bool isConnected(const std::vector<geom::Vec2>& positions, double radius) {
  if (positions.size() <= 1) return true;
  return bfs(positions, radius, 0).size() == positions.size() - 1;
}

double averageDegree(const std::vector<geom::Vec2>& positions, double radius) {
  if (positions.empty()) return 0.0;
  const double r2 = radius * radius;
  std::size_t links = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      if (geom::distanceSquared(positions[i], positions[j]) <= r2) ++links;
    }
  }
  return 2.0 * static_cast<double>(links) /
         static_cast<double>(positions.size());
}

}  // namespace manet::stats
