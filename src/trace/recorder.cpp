#include "trace/recorder.hpp"

namespace manet::trace {

const char* eventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kBroadcastOriginated: return "originated";
    case EventKind::kTxStarted: return "tx_start";
    case EventKind::kTxFinished: return "tx_end";
    case EventKind::kDelivered: return "delivered";
    case EventKind::kDuplicateHeard: return "duplicate";
    case EventKind::kDrop: return "drop";
    case EventKind::kInhibited: return "inhibited";
    case EventKind::kHelloSent: return "hello";
    case EventKind::kAuditViolation: return "audit_violation";
  }
  return "?";
}

void Recorder::onEvent(const Event& event) {
  ++totalSeen_;
  ++countsByKind_[static_cast<std::size_t>(event.kind)];
  if (event.kind == EventKind::kDrop) {
    ++dropsByReason_[static_cast<std::size_t>(event.drop)];
  }
  events_.push_back(event);
}

std::uint64_t Recorder::countOf(EventKind kind) const {
  return countsByKind_[static_cast<std::size_t>(kind)];
}

std::uint64_t Recorder::countOfDrop(phy::DropReason reason) const {
  return dropsByReason_[static_cast<std::size_t>(reason)];
}

std::vector<Event> Recorder::select(EventKind kind,
                                    net::BroadcastId bid) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.kind == kind && e.bid == bid) out.push_back(e);
  }
  return out;
}

}  // namespace manet::trace
