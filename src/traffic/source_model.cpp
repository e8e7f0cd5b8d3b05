#include "traffic/source_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace manet::traffic {

UniformSources::UniformSources(int numHosts) : numHosts_(numHosts) {
  MANET_EXPECTS(numHosts >= 1);
}

SubsetSources::SubsetSources(std::vector<net::HostId> candidates)
    : candidates_(std::move(candidates)) {
  MANET_EXPECTS(!candidates_.empty());
}

std::unique_ptr<SourceModel> makeSourceModel(
    const TrafficConfig& config, int numHosts,
    const std::vector<geom::Vec2>& initialPositions, double mapMeters) {
  MANET_EXPECTS(numHosts >= 1);
  switch (config.sources) {
    case TrafficConfig::Sources::kUniform:
      return std::make_unique<UniformSources>(numHosts);
    case TrafficConfig::Sources::kHotspot: {
      const int k = std::clamp(config.hotspotCount, 1, numHosts);
      std::vector<net::HostId> hotspot;
      hotspot.reserve(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i) {
        hotspot.push_back(net::HostId{static_cast<std::uint32_t>(i)});
      }
      return std::make_unique<SubsetSources>(std::move(hotspot));
    }
    case TrafficConfig::Sources::kZone: {
      const double x0 = std::min(config.zoneX0, config.zoneX1) * mapMeters;
      const double x1 = std::max(config.zoneX0, config.zoneX1) * mapMeters;
      const double y0 = std::min(config.zoneY0, config.zoneY1) * mapMeters;
      const double y1 = std::max(config.zoneY0, config.zoneY1) * mapMeters;
      std::vector<net::HostId> inZone;
      const std::size_t n = std::min(initialPositions.size(),
                                     static_cast<std::size_t>(numHosts));
      for (std::size_t i = 0; i < n; ++i) {
        const geom::Vec2& p = initialPositions[i];
        if (p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1) {
          inZone.push_back(net::HostId{static_cast<std::uint32_t>(i)});
        }
      }
      if (inZone.empty()) {
        // An empty zone must not stall the workload: degrade to uniform.
        return std::make_unique<UniformSources>(numHosts);
      }
      return std::make_unique<SubsetSources>(std::move(inZone));
    }
  }
  MANET_ASSERT(!"unreachable source model");
  return nullptr;
}

}  // namespace manet::traffic
