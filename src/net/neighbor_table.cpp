#include "net/neighbor_table.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace manet::net {

NeighborTable::NeighborTable(sim::Duration nvWindow,
                             sim::Duration fallbackInterval)
    : nvWindow_(nvWindow), fallbackInterval_(fallbackInterval) {
  MANET_EXPECTS(nvWindow_ > sim::Duration{});
  MANET_EXPECTS(fallbackInterval_ > sim::Duration{});
}

sim::TimePoint NeighborTable::expiryOf(const Entry& e) const {
  const sim::Duration interval =
      e.interval > sim::Duration{} ? e.interval : fallbackInterval_;
  return e.lastHeard + 2 * interval;
}

void NeighborTable::recordChange(sim::TimePoint now) { changes_.push_back(now); }

void NeighborTable::dropOldChanges(sim::TimePoint now) {
  while (!changes_.empty() && changes_.front() + nvWindow_ < now) {
    changes_.pop_front();
  }
}

void NeighborTable::onHello(HostId from, const Packet& hello, sim::TimePoint now) {
  MANET_EXPECTS(hello.type == PacketType::kHello);
  obs::add(obs::Counter::kHelloRx);
  purge(now);
  auto [it, inserted] = entries_.try_emplace(from);
  it->second.lastHeard = now;
  it->second.interval = hello.helloInterval;
  it->second.neighbors = hello.helloNeighbors;
  // A refresh may announce a shorter interval than before, so lower the
  // bound on every HELLO, not only on joins.
  nextExpiry_ = std::min(nextExpiry_, expiryOf(it->second));
  if (inserted) {
    recordChange(now);  // a join
    obs::add(obs::Counter::kNeighborJoins);
  }
  const auto size = static_cast<std::uint64_t>(entries_.size());
  obs::gaugeMax(obs::Gauge::kNeighborTableSize, size);
  obs::observe(obs::Hist::kNeighborTableSize, static_cast<double>(size));
}

void NeighborTable::purge(sim::TimePoint now) {
  MANET_AUDIT_HOOK(audit_.onPurge(now));
  if (nextExpiry_ < now) {
    nextExpiry_ = kNoExpiry;
    // NOLINT-determinism(erase-only scan; leave count and min are order-insensitive)
    for (auto it = entries_.begin(); it != entries_.end();) {
      const sim::TimePoint expiry = expiryOf(it->second);
      if (expiry < now) {
        MANET_AUDIT_HOOK(audit_.onExpire(expiry, now));
        it = entries_.erase(it);
        recordChange(now);  // a leave
        obs::add(obs::Counter::kNeighborLeaves);
      } else {
        nextExpiry_ = std::min(nextExpiry_, expiry);
        ++it;
      }
    }
  }
  dropOldChanges(now);
}

int NeighborTable::neighborCount(sim::TimePoint now) {
  purge(now);
  return static_cast<int>(entries_.size());
}

std::vector<HostId> NeighborTable::neighborIds(sim::TimePoint now) {
  purge(now);
  std::vector<HostId> ids;
  ids.reserve(entries_.size());
  // NOLINT-determinism(collected unsorted, canonicalized below)
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  // Canonical ascending order: these ids go onto the wire in HELLO packets
  // and into scheme decisions, so hash-map iteration order must not
  // leak into the simulation (it varies across standard libraries).
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool NeighborTable::contains(HostId h, sim::TimePoint now) {
  purge(now);
  return entries_.contains(h);
}

const std::vector<HostId>* NeighborTable::neighborsOf(HostId h,
                                                      sim::TimePoint now) {
  static const std::vector<HostId> kNone;
  purge(now);
  auto it = entries_.find(h);
  if (it == entries_.end()) return nullptr;
  return it->second.neighbors != nullptr ? it->second.neighbors.get() : &kNone;
}

int NeighborTable::changeEventsInWindow(sim::TimePoint now) {
  purge(now);
  return static_cast<int>(changes_.size());
}

double NeighborTable::neighborhoodVariation(sim::TimePoint now) {
  purge(now);
  const double windowSeconds = sim::toSeconds(nvWindow_);
  const double denomHosts =
      entries_.empty() ? 1.0 : static_cast<double>(entries_.size());
  return static_cast<double>(changes_.size()) / (denomHosts * windowSeconds);
}

}  // namespace manet::net
