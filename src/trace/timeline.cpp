#include "trace/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "sim/time.hpp"

namespace manet::trace {

int Timeline::receivedCount() const {
  int n = 0;
  for (const auto& o : outcomes) n += o.deliveredAt != sim::kNever ? 1 : 0;
  return n;
}

int Timeline::rebroadcastCount() const {
  int n = 0;
  for (const auto& o : outcomes) n += o.rebroadcast ? 1 : 0;
  return n;
}

int Timeline::inhibitedCount() const {
  int n = 0;
  for (const auto& o : outcomes) n += o.inhibited ? 1 : 0;
  return n;
}

std::string Timeline::render() const {
  std::ostringstream os;
  os << "broadcast (" << bid.origin.value() << ", " << bid.seq.value()
     << ") originated by " << source.value()
     << " at t=" << sim::toSeconds(originatedAt) << "s\n";
  for (const auto& o : outcomes) {
    os << "  host " << o.node.value();
    if (o.deliveredAt != sim::kNever) {
      os << ": delivered +"
         << sim::toSeconds(o.deliveredAt - originatedAt) * 1000.0 << "ms";
    }
    if (o.duplicatesHeard > 0) os << ", +" << o.duplicatesHeard << " dup";
    if (o.rebroadcast) {
      os << ", RELAYED +"
         << sim::toSeconds(o.txStartedAt - originatedAt) * 1000.0 << "ms";
    }
    if (o.inhibited) {
      os << ", inhibited +"
         << sim::toSeconds(o.inhibitedAt - originatedAt) * 1000.0 << "ms";
    }
    os << "\n";
  }
  os << "  => received " << receivedCount() << ", relayed "
     << rebroadcastCount() << ", inhibited " << inhibitedCount();
  if (completionTime >= sim::Duration{}) {
    os << ", completed in " << sim::toSeconds(completionTime) * 1000.0
       << "ms";
  }
  os << "\n";
  return os.str();
}

std::optional<Timeline> buildTimeline(const std::vector<Event>& events,
                                      net::BroadcastId bid) {
  Timeline tl;
  tl.bid = bid;
  std::map<net::HostId, HostOutcome> byHost;  // ordered for stable output
  sim::TimePoint lastTerminal = sim::kNever;
  bool found = false;

  for (const Event& e : events) {
    if (!(e.bid == bid)) continue;
    switch (e.kind) {
      case EventKind::kBroadcastOriginated:
        tl.source = e.node;
        tl.originatedAt = e.at;
        found = true;
        continue;
      case EventKind::kHelloSent:
      case EventKind::kDrop:
      case EventKind::kAuditViolation:
        continue;
      default:
        break;
    }
    if (e.node == tl.source) {
      // The source's own tx events bound the completion time but the source
      // is not an "outcome" host.
      if (e.kind == EventKind::kTxFinished) {
        lastTerminal = std::max(lastTerminal, e.at);
      }
      continue;
    }
    auto [it, inserted] = byHost.try_emplace(e.node);
    HostOutcome& o = it->second;
    if (inserted) o.node = e.node;
    switch (e.kind) {
      case EventKind::kDelivered:
        o.deliveredAt = e.at;
        break;
      case EventKind::kDuplicateHeard:
        ++o.duplicatesHeard;
        break;
      case EventKind::kTxStarted:
        o.rebroadcast = true;
        o.txStartedAt = e.at;
        break;
      case EventKind::kTxFinished:
        lastTerminal = std::max(lastTerminal, e.at);
        break;
      case EventKind::kInhibited:
        o.inhibited = true;
        o.inhibitedAt = e.at;
        lastTerminal = std::max(lastTerminal, e.at);
        break;
      default:
        break;
    }
  }
  if (!found) return std::nullopt;

  tl.outcomes.reserve(byHost.size());
  for (auto& [node, outcome] : byHost) tl.outcomes.push_back(outcome);
  std::sort(tl.outcomes.begin(), tl.outcomes.end(),
            [](const HostOutcome& a, const HostOutcome& b) {
              return a.deliveredAt < b.deliveredAt;
            });
  if (lastTerminal != sim::kNever && tl.originatedAt != sim::kNever) {
    tl.completionTime = lastTerminal - tl.originatedAt;
  }
  return tl;
}

std::vector<net::BroadcastId> broadcastsIn(const std::vector<Event>& events) {
  std::vector<net::BroadcastId> out;
  for (const Event& e : events) {
    if (e.kind == EventKind::kBroadcastOriginated) out.push_back(e.bid);
  }
  return out;
}

}  // namespace manet::trace
