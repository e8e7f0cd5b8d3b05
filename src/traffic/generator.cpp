#include "traffic/generator.hpp"

#include <utility>

#include "traffic/arrival.hpp"
#include "traffic/source_model.hpp"
#include "util/assert.hpp"

namespace manet::traffic {

Generator::Generator(const TrafficConfig& config, int numHosts,
                     sim::Duration uniformMax,
                     std::vector<geom::Vec2> initialPositions,
                     double mapMeters)
    : config_(config),
      numHosts_(numHosts),
      uniformMax_(uniformMax),
      initialPositions_(std::move(initialPositions)),
      mapMeters_(mapMeters) {
  MANET_EXPECTS(numHosts >= 1);
  MANET_EXPECTS(uniformMax >= sim::Duration{});
}

std::vector<Request> Generator::schedule(int count, sim::TimePoint start,
                                         sim::Rng& rng) const {
  MANET_EXPECTS(count >= 0);
  const auto arrival = makeArrival(config_, uniformMax_);
  const auto sources =
      makeSourceModel(config_, numHosts_, initialPositions_, mapMeters_);
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(count));
  sim::TimePoint at = start;
  for (int i = 0; i < count; ++i) {
    at += arrival->nextGap(rng);
    Request req;
    req.at = at;
    req.source = sources->pick(rng);
    req.seq = static_cast<std::uint32_t>(i);
    out.push_back(req);
  }
  return out;
}

}  // namespace manet::traffic
