// One- and two-hop neighborhood state learned from HELLO packets (§3.3),
// plus the neighborhood-variation estimator nv_x that drives the dynamic
// hello interval (§4.3).
//
// Entry lifetime follows the paper: "A host x enlists another host h as its
// one-hop neighbor when a HELLO is received from h. If no HELLO has been
// received from h for the past two hello intervals, host x deletes h" —
// with the dynamic scheme, "two hello intervals" means two of the *sender's*
// announced intervals.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "net/ids.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"

#if MANET_AUDIT_ENABLED
#include "audit/invariants.hpp"
#endif

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::net {

class NeighborTable {
 public:
  struct Entry {
    sim::TimePoint lastHeard{};
    sim::Duration interval{};        // sender-announced hello interval
    NeighborList neighbors;          // N_{x,h}: h's advertised one-hop set,
                                     // shared with the HELLO (null: none)
  };

  /// `nvWindow` is the sliding window for neighborhood variation (10 s in
  /// the paper); `fallbackInterval` ages entries whose HELLO did not
  /// announce an interval.
  explicit NeighborTable(sim::Duration nvWindow = 10 * sim::kSecond,
                         sim::Duration fallbackInterval = 1 * sim::kSecond);

  /// Records a received HELLO. `now` is the reception time.
  void onHello(HostId from, const Packet& hello, sim::TimePoint now);

  /// Removes expired entries, recording leave events for nv. Call this (or
  /// any query, which calls it implicitly) with non-decreasing `now`.
  /// Scans the table only once `now` passes the earliest expiry.
  void purge(sim::TimePoint now);

  /// |N_x| after purging.
  int neighborCount(sim::TimePoint now);

  /// Current one-hop neighbor ids (unsorted) after purging.
  std::vector<HostId> neighborIds(sim::TimePoint now);

  /// True if `h` is currently a one-hop neighbor.
  bool contains(HostId h, sim::TimePoint now);

  /// N_{x,h}: the advertised neighbor set of one-hop neighbor `h` (empty
  /// when its HELLO carried none), or nullptr when `h` is unknown/expired.
  /// The list is the one h's HELLO carried, not a copy; the pointer stays
  /// valid until the table next changes (a HELLO or a purging query).
  const std::vector<HostId>* neighborsOf(HostId h, sim::TimePoint now);

  /// nv_x = (# joins + # leaves within the past window) / (|N_x| * window_s).
  /// With an empty neighborhood the denominator is treated as 1 host, so a
  /// freshly-emptied neighborhood reports high variation (and thus a short
  /// hello interval) rather than dividing by zero.
  double neighborhoodVariation(sim::TimePoint now);

  /// Raw change-event count within the window (for tests/diagnostics).
  int changeEventsInWindow(sim::TimePoint now);

 private:
  friend struct manet::ckpt::StateAccess;
  sim::TimePoint expiryOf(const Entry& e) const;
  void recordChange(sim::TimePoint now);
  void dropOldChanges(sim::TimePoint now);

  sim::Duration nvWindow_;
  sim::Duration fallbackInterval_;
  std::unordered_map<HostId, Entry> entries_;
  /// Lower bound on the earliest expiry in entries_: purge() scans only
  /// once `now` passes it, and recomputes it exactly during the scan.
  static constexpr sim::TimePoint kNoExpiry{
      std::numeric_limits<std::int64_t>::max()};
  sim::TimePoint nextExpiry_ = kNoExpiry;
  std::deque<sim::TimePoint> changes_;  // join/leave timestamps, ascending
#if MANET_AUDIT_ENABLED
  audit::NeighborAudit audit_;
#endif
};

}  // namespace manet::net
