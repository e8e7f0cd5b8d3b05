// Periodic HELLO beaconing with optional neighbor-list piggyback and the
// paper's dynamic hello interval (§4.3):
//
//     hi_x = max(hi_min, (nv_max - nv_x) / nv_max * hi_max)
//
// clamped into [hi_min, hi_max] (a host whose variation exceeds nv_max uses
// hi_min). Each HELLO announces the interval in use so receivers can age the
// entry by two *sender* intervals.
#pragma once

#include <cstdint>

#include "mac/dcf.hpp"
#include "net/neighbor_table.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::net {

struct HelloConfig {
  bool enabled = true;

  /// Fixed interval used when `dynamic` is false.
  sim::Duration interval = 1 * sim::kSecond;

  /// Dynamic hello interval (the paper's DHI, §4.3).
  bool dynamic = false;
  sim::Duration intervalMin = 1 * sim::kSecond;   // hi_min
  sim::Duration intervalMax = 10 * sim::kSecond;  // hi_max
  double nvMax = 0.02;                         // nv_max

  /// Append the sender's one-hop set N_x (needed by neighbor coverage).
  bool piggybackNeighbors = true;

  /// HELLO wire size model: base header plus 4 bytes per advertised id.
  std::size_t baseBytes = 24;
  std::size_t perNeighborBytes = 4;

  /// Each host delays its first HELLO by U(0, startJitter) to avoid
  /// synchronized beacons at t = 0.
  sim::Duration startJitter = 1 * sim::kSecond;

  /// Every period is shortened by U(0, periodJitterFraction) of itself, so
  /// two hosts that happen to beacon in phase do not collide forever (the
  /// standard hello-jitter of OLSR-style protocols).
  double periodJitterFraction = 0.1;
};

class HelloAgent {
 public:
  HelloAgent(sim::Scheduler& scheduler, mac::DcfMac& mac,
             NeighborTable& table, HelloConfig config, sim::Rng rng);

  /// Begins beaconing (no-op when disabled).
  void start();

  /// The interval the next HELLO will be scheduled with.
  sim::Duration currentInterval() const { return currentInterval_; }

  std::uint64_t hellosSent() const { return hellosSent_; }

  /// Computes the dynamic interval for a given neighborhood variation
  /// (exposed for tests; pure function of the config).
  static sim::Duration dynamicInterval(const HelloConfig& config, double nv);

 private:
  friend struct manet::ckpt::StateAccess;
  void sendHello();

  sim::Scheduler& scheduler_;
  mac::DcfMac& mac_;
  NeighborTable& table_;
  HelloConfig config_;
  sim::Rng rng_;
  sim::Duration currentInterval_;
  sim::Scheduler::Handle timer_;
  std::uint64_t hellosSent_ = 0;
};

}  // namespace manet::net
