// The channel's position source for a set of hosts (DESIGN.md §7.1): an
// id-indexed array of mobility models, read at the scheduler's current time
// with no per-node callback.
//
// Lazy epochs: the channel marks each instant it queries, and every host
// must see every marked instant, in order (a RandomRoam position depends on
// the list of times it was asked for). The source only logs the marks. A
// host replays the marks it has not seen, in one replay() call, when it is
// next read; so a host no query looks at costs nothing per epoch, and its
// trajectory keeps the bits of one positionAt call per marked instant.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "mobility/model.hpp"
#include "phy/channel.hpp"
#include "sim/scheduler.hpp"
#include "util/assert.hpp"

namespace manet::experiment {

class ModelPositions final : public phy::PositionSource {
 public:
  explicit ModelPositions(const sim::Scheduler& scheduler)
      : scheduler_(scheduler) {}
  /// A channel holds this source by address.
  ModelPositions(const ModelPositions&) = delete;
  ModelPositions& operator=(const ModelPositions&) = delete;

  /// Registers the model of the next node id (ids are dense, 0..N-1). The
  /// model stays owned by the caller and must outlive this source, and its
  /// node must be attached to the channel: a mark reaches every model.
  void add(mobility::MobilityModel& model) {
    models_.push_back(&model);
    seen_.push_back(base_ + epochs_.size());
    maxSpeed_ = std::max(maxSpeed_, model.maxSpeedMps());
  }

  /// Each mark is later than the one before, also across a dropped log
  /// (the channel marks an instant once): every replay list is strictly
  /// increasing.
  void markEpoch(sim::TimePoint t) override {
    MANET_EXPECTS(!lastMark_ || t > *lastMark_);
    lastMark_ = t;
    // A run whose grid never needs to read every host (no motion) would
    // grow the log without end: replay everyone and start over.
    if (epochs_.size() >= kMaxPendingEpochs) {
      for (std::size_t i = 0; i < models_.size(); ++i) {
        if (seen_[i] != base_ + epochs_.size()) catchUp(i);
      }
      forget();
    }
    // The step from the previous mark, once for every host that replays
    // it; the first mark of the log has none (replay() does not read it).
    steps_.push_back(epochs_.empty() ? 0.0
                                     : sim::toSeconds(t - epochs_.back()));
    epochs_.push_back(t);
  }

  double maxSpeedMps() const override { return maxSpeed_; }

  geom::Vec2 positionOf(net::HostId id) override {
    return at(id.value(), scheduler_.now());
  }

  void positionsOf(std::span<const net::HostId> ids,
                   std::span<geom::Vec2> out) override {
    const sim::TimePoint now = scheduler_.now();
    for (const net::HostId id : ids) out[id.value()] = at(id.value(), now);
    // Every model has now replayed the whole log.
    if (ids.size() == models_.size()) forget();
  }

  /// The marked instants host `id` has yet to replay, oldest first.
  std::span<const sim::TimePoint> pending(net::HostId id) const {
    const std::size_t from = seen_[id.value()] - base_;
    return {epochs_.data() + from, epochs_.size() - from};
  }

  /// The steps between consecutive pending(id) instants, as replay(times,
  /// steps) takes them (the first is not read).
  std::span<const double> pendingSteps(net::HostId id) const {
    const std::size_t from = seen_[id.value()] - base_;
    return {steps_.data() + from, steps_.size() - from};
  }

  /// What positionOf(id) would return now, without advancing the model.
  geom::Vec2 peekPositionOf(net::HostId id) const {
    return models_[id.value()]->peekPositionAt(pending(id), pendingSteps(id),
                                               scheduler_.now());
  }

 private:
  /// Bound on the log between two reads of every host.
  static constexpr std::size_t kMaxPendingEpochs = 4096;

  /// Host `i`'s position at `now`, after it replays the marks it missed.
  /// The channel marks an instant before it reads anyone then, so the last
  /// mark is usually `now` itself and the replay's answer is the read.
  geom::Vec2 at(std::size_t i, sim::TimePoint now) {
    if (seen_[i] == base_ + epochs_.size()) return models_[i]->positionAt(now);
    const geom::Vec2 p = catchUp(i);
    return epochs_.back() == now ? p : models_[i]->positionAt(now);
  }

  /// Replays the marks host `i` has not seen (at least one); returns its
  /// position at the last.
  geom::Vec2 catchUp(std::size_t i) {
    const std::size_t from = seen_[i] - base_;
    seen_[i] = base_ + epochs_.size();
    return models_[i]->replay(
        {epochs_.data() + from, epochs_.size() - from},
        {steps_.data() + from, steps_.size() - from});
  }

  /// Drops the log once every model has replayed it.
  void forget() {
    base_ += epochs_.size();
    epochs_.clear();
    steps_.clear();
  }

  const sim::Scheduler& scheduler_;
  std::vector<mobility::MobilityModel*> models_;
  double maxSpeed_ = 0.0;
  /// Marked instants not yet replayed by every model; epochs_[k] is mark
  /// number base_ + k since the source was built.
  std::vector<sim::TimePoint> epochs_;
  /// Parallel to epochs_: steps_[k] = toSeconds(epochs_[k] - epochs_[k-1]).
  std::vector<double> steps_;
  std::size_t base_ = 0;
  /// The latest mark; forget() keeps it.
  std::optional<sim::TimePoint> lastMark_;
  /// Per model: how many marks (counted from the first) it has replayed.
  std::vector<std::size_t> seen_;
};

}  // namespace manet::experiment
