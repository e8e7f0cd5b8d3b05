// The paper's six rebroadcast-suppression schemes.
//
// Every scheme follows the same five-step skeleton:
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
// queue handle, cancellation. A scheme only answers the two questions the
// skeleton asks: "proceed after first hearing?" (S1) and "keep waiting after
// this duplicate?" (S4), through one PacketDecider per (host, packet). The
// deciders get read access to the host through HostView.
//
// The schemes (§2.3 and §3):
//   * flooding                — always rebroadcast.
//   * counter (fixed C)       — inhibit once the packet was heard C times.
//   * location (fixed A)      — inhibit once the remaining additional
//                               coverage drops below the area fraction A.
//   * adaptive counter (AC)   — counter threshold C(n) of neighbor count n.
//   * adaptive location (AL)  — area threshold A(n) of neighbor count n.
//   * neighbor coverage (NC)  — rebroadcast only while some one-hop neighbor
//                               is not yet covered (2-hop HELLO knowledge).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/threshold.hpp"
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

/// What a scheme may observe about its host. Implemented by the host; in
/// oracle mode neighbor queries reflect true geometry, in hello mode they
/// reflect the (possibly stale) HELLO-learned tables — the distinction Figs.
/// 11-12 study.
class HostView {
 public:
  virtual ~HostView() = default;

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
  /// heard-sender sets, ...), folded into the host's state fingerprint
  /// (DESIGN.md §14). Stateless deciders keep the default 0.
  virtual std::uint64_t stateDigest() const { return 0; }
};

/// One scheme and its parameters: a plain value that scenario configs and
/// sweeps copy around (experiment::SchemeSpec), shared by all hosts of a
/// run. Each (host, packet) pair gets a fresh PacketDecider, which borrows
/// the threshold function, so the policy must outlive its deciders.
struct RebroadcastPolicy {
  enum class Type {
    kFlooding,
    kCounter,
    kLocation,
    kAdaptiveCounter,
    kAdaptiveLocation,
    kNeighborCoverage,
  };

  Type type = Type::kFlooding;
  // Each scheme reads only its own parameter. C >= 1 and 0 <= A <= 1 are
  // checked by experiment::ScenarioConfig::resolved().
  int counterC = 3;                                            // C
  double areaA = 0.0134;                                       // A
  CounterThreshold counterFn = CounterThreshold::suggested();  // AC
  AreaThreshold areaFn = AreaThreshold::suggested();           // AL
  /// Overrides the default name when non-empty.
  std::string label{};

  static RebroadcastPolicy flooding();
  static RebroadcastPolicy counter(int c);
  static RebroadcastPolicy location(double a);
  static RebroadcastPolicy adaptiveCounter(
      CounterThreshold fn = CounterThreshold::suggested(),
      std::string label = "AC");
  static RebroadcastPolicy adaptiveLocation(
      AreaThreshold fn = AreaThreshold::suggested(), std::string label = "AL");
  static RebroadcastPolicy neighborCoverage();

  std::unique_ptr<PacketDecider> makeDecider(HostView& host,
                                             const Reception& first) const;

  /// Short label used in tables ("AC", "C=2", "A=0.0134", "NC", ...).
  std::string name() const;

  /// True for the schemes that consult |N_x| or neighbor sets.
  bool needsNeighborInfo() const;

  /// True for neighbor coverage, which additionally needs N_{x,h}.
  bool needsTwoHopInfo() const { return type == Type::kNeighborCoverage; }
};

}  // namespace manet::core
