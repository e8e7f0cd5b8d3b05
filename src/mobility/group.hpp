// Reference-point group mobility (RPGM, Hong et al.): hosts move in teams.
// Each group has a logical center that roams the map like a single host
// (the paper's random-roam pattern); each member keeps a fixed reference
// offset from the center plus its own small local deviation. Models the
// paper's motivating scenarios — "fleets in the ocean, soldiers on the
// march, rescue scenes" — where hosts cluster and move together.
#pragma once

#include <memory>
#include <vector>

#include "mobility/map.hpp"
#include "mobility/model.hpp"
#include "mobility/random_roam.hpp"
#include "sim/random.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::mobility {

struct GroupParams {
  /// Group-center motion (speed of the team as a whole).
  RoamParams center;
  /// Radius of the disk (around the reference point) in which members are
  /// placed and locally roam.
  double spanMeters = 200.0;
  /// Maximum speed of a member's local deviation motion, m/s.
  double localSpeedMps = kmhToMps(5.0);
};

/// The shared group center. Create one per team, then derive members.
class GroupCenter {
 public:
  GroupCenter(MapSpec map, geom::Vec2 start, GroupParams params,
              sim::Rng rng);

  /// Center position at time t (monotone t across ALL members' queries,
  /// which holds when driven by a single scheduler).
  geom::Vec2 positionAt(sim::TimePoint t);

  const MapSpec& map() const { return map_; }
  const GroupParams& params() const { return params_; }

 private:
  friend struct manet::ckpt::StateAccess;
  MapSpec map_;
  GroupParams params_;
  RandomRoam roam_;
};

/// One member of a group: center + fixed offset + local roaming deviation,
/// clamped onto the map.
class GroupMember final : public MobilityModel {
 public:
  GroupMember(std::shared_ptr<GroupCenter> center, geom::Vec2 offset,
              sim::Rng rng);

  geom::Vec2 positionAt(sim::TimePoint t) override;
  /// Evaluates copies of the deviation and of the shared center, which
  /// the other members' positions also depend on.
  geom::Vec2 peekPositionAt(sim::TimePoint t) const override;

 private:
  friend struct manet::ckpt::StateAccess;
  /// Center + offset + deviation at `t`, advancing the given models.
  geom::Vec2 place(GroupCenter& center, RandomRoam& deviation,
                   sim::TimePoint t) const;

  std::shared_ptr<GroupCenter> center_;
  geom::Vec2 offset_;
  RandomRoam deviation_;  // roams a small local box centered at the offset
};

/// Builds `members` mobility models sharing one center starting at `start`.
std::vector<std::unique_ptr<MobilityModel>> makeGroup(
    MapSpec map, geom::Vec2 start, int members, GroupParams params,
    sim::Rng& rng);

}  // namespace manet::mobility
