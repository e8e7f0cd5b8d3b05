// The channel's position source for a set of hosts (DESIGN.md §7.1): an
// id-indexed array of mobility models, each evaluated at the scheduler's
// current time with one virtual call and no per-node callback.
#pragma once

#include <span>
#include <vector>

#include "mobility/model.hpp"
#include "phy/channel.hpp"
#include "sim/scheduler.hpp"

namespace manet::experiment {

class ModelPositions final : public phy::PositionSource {
 public:
  explicit ModelPositions(const sim::Scheduler& scheduler)
      : scheduler_(scheduler) {}
  /// A channel holds this source by address.
  ModelPositions(const ModelPositions&) = delete;
  ModelPositions& operator=(const ModelPositions&) = delete;

  /// Registers the model of the next node id (ids are dense, 0..N-1). The
  /// model stays owned by the caller and must outlive this source.
  void add(mobility::MobilityModel& model) { models_.push_back(&model); }

  geom::Vec2 positionOf(net::HostId id) override {
    return models_[id.value()]->positionAt(scheduler_.now());
  }

  void positionsOf(std::span<const net::HostId> ids,
                   std::span<geom::Vec2> out) override {
    const sim::TimePoint now = scheduler_.now();
    mobility::MobilityModel* const* models = models_.data();
    for (const net::HostId id : ids) {
      out[id.value()] = models[id.value()]->positionAt(now);
    }
  }

 private:
  const sim::Scheduler& scheduler_;
  std::vector<mobility::MobilityModel*> models_;
};

}  // namespace manet::experiment
