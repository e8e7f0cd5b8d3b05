// In-memory trace recorder with counting.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace manet::trace {

/// Stores every event. Memory cost is one Event per occurrence.
class Recorder final : public TraceSink {
 public:
  void onEvent(const Event& event) override;

  const std::vector<Event>& events() const { return events_; }

  /// Total events seen, by kind.
  std::uint64_t countOf(EventKind kind) const;
  std::uint64_t totalSeen() const { return totalSeen_; }

  /// Total kDrop events seen with the given reason.
  std::uint64_t countOfDrop(phy::DropReason reason) const;

  /// Events of one kind for one broadcast, in time order.
  std::vector<Event> select(EventKind kind, net::BroadcastId bid) const;

 private:
  std::vector<Event> events_;
  std::uint64_t totalSeen_ = 0;
  std::uint64_t countsByKind_[kEventKindCount] = {};
  std::uint64_t dropsByReason_[phy::kDropReasonCount] = {};
};

}  // namespace manet::trace
