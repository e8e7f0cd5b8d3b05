// Invariant checkers for the simulation engine (DESIGN.md §9).
//
// Each checker is a small always-compiled state machine that mirrors the
// aspect of engine state its invariants range over and calls audit::report
// on any illegal step. The engine feeds them through MANET_AUDIT_HOOK call
// sites (active only under -DMANET_AUDIT=ON); tests feed them corrupted
// sequences directly, in any build configuration.
//
// Invariant identifiers are stable strings (they appear in violation
// reports and in tests):
//   scheduler.schedule-in-past   event scheduled before now
//   scheduler.monotonic-pop      event popped earlier than its predecessor
//   scheduler.cancel-past-event  live event cancelled after its due time
//   scheduler.count-drift        live count != heap-resident + live-lane count
//   channel.reception-underflow  reception ended with none in flight
//   channel.energy-underflow     carrier energy lowered below zero
//   channel.flush-mismatch       host-down flush disagreed with in-flight set
//   channel.down-node-delivery   frame completed at a churned-down node
//   channel.teardown-balance     begin/end/flush ledger broken at teardown
//   mac.onair-overlap            a frame started while another was on air
//   mac.onair-underflow          a frame ended with nothing on air
//   neighbor.purge-order         purge called with a time going backwards
//   neighbor.premature-expiry    entry expired before its deadline
//   churn.crash-reset-incomplete host state survived a crash reset
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "audit/audit.hpp"
#include "net/ids.hpp"
#include "sim/time.hpp"

namespace manet::audit {

/// Scheduler invariants: pop-time monotonicity and cancellation hygiene.
class SchedulerAudit {
 public:
  /// A new event was scheduled for `at` while the clock reads `now`.
  void onSchedule(sim::TimePoint at, sim::TimePoint now);
  /// The next live event, timestamped `at`, is about to run.
  void onPop(sim::TimePoint at);
  /// A still-pending event scheduled for `eventAt` was cancelled at `now`.
  void onCancel(sim::TimePoint eventAt, sim::TimePoint now);
  /// After every pop/cancel the scheduler reports its redundant live-event
  /// counter, the heap's resident size and the live lane entries (dead lane
  /// entries, cancelled but not yet at their ring's head, are excluded).
  /// The first must equal the sum of the other two, so any drift is a
  /// pool/heap/lane bookkeeping bug.
  void onCount(std::size_t live, std::size_t heapResident,
               std::size_t laneLive, sim::TimePoint now);

  sim::TimePoint lastPopTime() const { return lastPop_; }

 private:
  sim::TimePoint lastPop_ = sim::TimePoint{std::numeric_limits<std::int64_t>::min()};
};

/// Channel invariants: per-node reception balance, carrier-energy
/// accounting, and churn flush consistency.
class ChannelAudit {
 public:
  void onBeginReception(net::HostId rx, sim::TimePoint at);
  void onEndReception(net::HostId rx, sim::TimePoint at);
  void onEnergyRaise(net::HostId rx, sim::TimePoint at);
  void onEnergyLower(net::HostId rx, sim::TimePoint at);
  /// Node `rx` churned down; `flushed` receptions were returned. Must equal
  /// the mirror's in-flight count; both ledgers reset to zero.
  void onHostDown(net::HostId rx, std::size_t flushed, sim::TimePoint at);
  /// A reception completion reached a node that is churned down.
  void onDeliveryWhileDown(net::HostId rx, sim::TimePoint at);
  /// End-of-life balance check. `inFlight` is the channel's own count of
  /// receptions still on the air (legitimate when the run stops mid-frame).
  void atTeardown(std::uint64_t inFlight, sim::TimePoint at);

  std::uint64_t begins() const { return begins_; }
  std::uint64_t ends() const { return ends_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  struct PerNode {
    std::int64_t active = 0;  // receptions in flight
    std::int64_t energy = 0;  // carrier-sense busy count
  };
  PerNode& node(net::HostId id);

  std::vector<PerNode> nodes_;
  std::uint64_t begins_ = 0;
  std::uint64_t ends_ = 0;
  std::uint64_t flushes_ = 0;
};

/// DCF on-air legality: a station transmits at most one frame at a time and
/// ends only a frame it started.
class DcfAudit {
 public:
  explicit DcfAudit(net::HostId self = net::kInvalidHost) : self_(self) {}

  /// A frame starts transmitting.
  void onTxStart(sim::TimePoint at);
  /// The frame on the air ends.
  void onTxEnd(sim::TimePoint at);
  /// Crash reset: forces the station idle; always legal.
  void onReset();

  bool onAir() const { return onAir_; }

 private:
  net::HostId self_;
  bool onAir_ = false;
};

/// Neighbor-table expiry ordering: purges observe non-decreasing time and
/// only remove entries whose deadline has truly passed.
class NeighborAudit {
 public:
  explicit NeighborAudit(net::HostId self = net::kInvalidHost)
      : self_(self) {}

  void onPurge(sim::TimePoint now);
  /// An entry with deadline `expiry` is being removed at `now`.
  void onExpire(sim::TimePoint expiry, sim::TimePoint now);
  /// Crash reset forgets all entries and the purge clock.
  void onClear();

 private:
  net::HostId self_;
  sim::TimePoint lastPurge_ = sim::TimePoint{std::numeric_limits<std::int64_t>::min()};
};

/// Host churn consistency: a crash reset must leave no protocol residue.
class ChurnAudit {
 public:
  /// Called after a host finished its crash reset. Every flag reports one
  /// flushed subsystem; any false is a violation. `statesFlushed` covers
  /// both the in-flight broadcast states and the terminal-phase record.
  void onCrashReset(net::HostId node, bool macQuiescent, bool statesFlushed,
                    bool tableCleared, sim::TimePoint at);
};

}  // namespace manet::audit
