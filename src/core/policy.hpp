// Rebroadcast-suppression policy interface.
//
// Every scheme in the paper (fixed-threshold baselines from Ni et al. [15]
// and the three adaptive contributions) follows the same five-step skeleton:
//
//   S1. On hearing broadcast P for the first time, initialize scheme state;
//       possibly inhibit immediately.
//   S2. Wait a random number (0..31) of slots, then submit P to the MAC and
//       wait until the transmission actually starts. If P is heard again
//       while waiting, go to S4.
//   S3. P is on the air; done.
//   S4. Update scheme state from the duplicate reception. If the scheme now
//       asserts redundancy, go to S5; otherwise resume the interrupted wait.
//   S5. Cancel the pending transmission; the host is permanently inhibited.
//
// The host (src/experiment/host.*) owns the skeleton — jitter timer, MAC
// queue handle, cancellation. A policy only answers the two questions the
// skeleton asks: "proceed after first hearing?" (S1) and "keep waiting after
// this duplicate?" (S4). Policies get read access to the host through
// HostView.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace manet::core {

/// One reception of the broadcast packet, as seen by the scheme.
struct Reception {
  net::HostId from = net::kInvalidHost;
  /// Sender position (the GPS coordinate the location-based schemes assume
  /// is carried in the packet header).
  geom::Vec2 fromPos{};
  sim::TimePoint at{};
};

/// What a policy may observe about its host. Implemented by the host; in
/// oracle mode neighbor queries reflect true geometry, in hello mode they
/// reflect the (possibly stale) HELLO-learned tables — the distinction Figs.
/// 11-12 study.
class HostView {
 public:
  virtual ~HostView() = default;

  virtual net::HostId id() const = 0;

  /// |N_x|: current number of one-hop neighbors.
  virtual int neighborCount() const = 0;

  /// N_x: current one-hop neighbor ids.
  virtual std::vector<net::HostId> neighborIds() const = 0;

  /// N_{x,h}: the one-hop set of neighbor `h` as known to this host, or
  /// nullptr when nothing is known about `h`. The list is borrowed, not
  /// copied: it stays valid until the next query on this view.
  virtual const std::vector<net::HostId>* neighborsOf(
      net::HostId h) const = 0;

  /// This host's own position (its "GPS reading").
  virtual geom::Vec2 position() const = 0;

  /// Radio range in meters.
  virtual double radius() const = 0;

  /// Per-host deterministic RNG stream for scheme-internal randomness.
  virtual sim::Rng& rng() = 0;

  virtual sim::TimePoint now() const = 0;
};

/// Per-packet decision state (steps S1/S4 for one broadcast at one host).
class PacketDecider {
 public:
  virtual ~PacketDecider() = default;

  /// S1: called once, right after construction. False = inhibit immediately
  /// (skip straight to S5, never enter the jitter wait).
  virtual bool shouldProceed(HostView& host) = 0;

  /// S4: a duplicate arrived while waiting. True = resume waiting; false =
  /// cancel (S5).
  virtual bool onDuplicate(HostView& host, const Reception& dup) = 0;

  /// FNV-1a fold of the decider's mutable scheme state (counter values,
  /// minimum distances, heard-sender sets, ...), folded into the host's
  /// state fingerprint (DESIGN.md §14). Stateless deciders keep the default 0.
  virtual std::uint64_t stateDigest() const { return 0; }
};

/// Scheme factory: one immutable policy object is shared by all hosts; each
/// (host, packet) pair gets a fresh PacketDecider.
class RebroadcastPolicy {
 public:
  virtual ~RebroadcastPolicy() = default;

  virtual std::unique_ptr<PacketDecider> makeDecider(
      HostView& host, const Reception& first) const = 0;

  /// Short label used in tables ("AC", "C=2", "NC", ...).
  virtual std::string name() const = 0;
};

}  // namespace manet::core
