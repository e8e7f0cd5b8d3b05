#include "mobility/group.hpp"

#include <cmath>

#include "geom/circle.hpp"
#include "util/assert.hpp"

namespace manet::mobility {

GroupCenter::GroupCenter(MapSpec map, geom::Vec2 start, GroupParams params,
                         sim::Rng rng)
    : map_(map),
      params_(params),
      roam_(map, start, params.center, rng) {
  MANET_EXPECTS(params_.spanMeters >= 0.0);
  MANET_EXPECTS(params_.localSpeedMps >= 0.0);
}

geom::Vec2 GroupCenter::positionAt(sim::TimePoint t) { return roam_.positionAt(t); }

GroupMember::GroupMember(std::shared_ptr<GroupCenter> center,
                         geom::Vec2 offset, sim::Rng rng)
    : center_(std::move(center)),
      offset_(offset),
      deviation_(
          // Local deviation roams a box of side 2*span centered at 0; we
          // shift by span so RandomRoam's [0, 2span] space maps to ±span.
          MapSpec{2.0 * center_->params().spanMeters,
                  2.0 * center_->params().spanMeters},
          geom::Vec2{center_->params().spanMeters,
                     center_->params().spanMeters},
          RoamParams{center_->params().localSpeedMps, 1 * sim::kSecond,
                     20 * sim::kSecond},
          rng) {
  MANET_EXPECTS(center_ != nullptr);
}

geom::Vec2 GroupMember::positionAt(sim::TimePoint t) {
  return place(*center_, deviation_, t);
}

geom::Vec2 GroupMember::peekPositionAt(sim::TimePoint t) const {
  GroupCenter center = *center_;
  RandomRoam deviation = deviation_;
  return place(center, deviation, t);
}

geom::Vec2 GroupMember::place(GroupCenter& center, RandomRoam& deviation,
                              sim::TimePoint t) const {
  const geom::Vec2 c = center.positionAt(t);
  const double span = center.params().spanMeters;
  geom::Vec2 dev{0.0, 0.0};
  if (span > 0.0) {
    dev = deviation.positionAt(t) - geom::Vec2{span, span};
  }
  return center.map().clamp(c + offset_ + dev);
}

std::vector<std::unique_ptr<MobilityModel>> makeGroup(
    MapSpec map, geom::Vec2 start, int members, GroupParams params,
    sim::Rng& rng) {
  MANET_EXPECTS(members >= 1);
  auto center = std::make_shared<GroupCenter>(map, start, params,
                                              rng.fork(0xCE47E5));
  std::vector<std::unique_ptr<MobilityModel>> out;
  out.reserve(static_cast<std::size_t>(members));
  for (int i = 0; i < members; ++i) {
    geom::Vec2 offset{0.0, 0.0};
    if (params.spanMeters > 0.0) {
      const double radius = params.spanMeters * std::sqrt(rng.uniform());
      const double angle = rng.uniform(0.0, 2.0 * geom::kPi);
      offset = radius * geom::unitVector(angle);
    }
    out.push_back(std::make_unique<GroupMember>(
        center, offset, rng.fork(0xD00 + static_cast<std::uint64_t>(i))));
  }
  return out;
}

}  // namespace manet::mobility
