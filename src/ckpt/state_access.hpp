// The single privileged window into engine state for fingerprints.
//
// Every engine class that carries run state friends this one struct (and
// nothing else), so all private-member reads used for fingerprinting are
// grepable in one translation unit. Capture methods read raw fields ONLY —
// they never call lazily-mutating public queries (MobilityModel::positionAt
// advances integrators and draws RNG at turn boundaries, NeighborTable
// queries purge, Channel queries rebuild the grid); a mobility model is
// digested from a copy that replays the epochs its host has yet to see, so
// the word is the state every host would reach. A capture therefore
// perturbs nothing: the captured world's future is byte-identical to a world
// that was never captured, which tests/test_ckpt.cpp checks under every
// mobility model. Each capture folds straight into one ckpt::Digest word;
// unordered containers are collected and sorted by stable keys first, so a
// word never depends on hash iteration order.
#pragma once

#include <cstdint>
#include <span>

#include "ckpt/digest.hpp"
#include "ckpt/fingerprint.hpp"
#include "sim/time.hpp"

namespace manet::experiment {
class Host;
class World;
}  // namespace manet::experiment
namespace manet::mac {
class DcfMac;
}
namespace manet::mobility {
class MobilityModel;
}
namespace manet::net {
class HelloAgent;
class NeighborTable;
}  // namespace manet::net
namespace manet::obs {
class Registry;
}
namespace manet::phy {
class Channel;
}
namespace manet::sim {
class Rng;
class Scheduler;
}  // namespace manet::sim
namespace manet::stats {
class MetricsCollector;
}

namespace manet::ckpt {

struct StateAccess {
  // --- capture (side-effect-free raw reads, one digest word each) ---
  static void addRng(Digest& d, const sim::Rng& rng);
  static std::uint64_t schedulerDigest(const sim::Scheduler& scheduler);
  static std::uint64_t neighborTableDigest(const net::NeighborTable& table);
  static std::uint64_t macDigest(const mac::DcfMac& mac);
  /// The backoff slots the MAC owes now, as macDigest folds them: while a
  /// countdown runs, the slots it has yet to count down (-1: none owed).
  static int macSlotsOwed(const mac::DcfMac& mac);
  static std::uint64_t helloDigest(const net::HelloAgent& hello);
  /// The model's state after it replays `pending`, the epochs its source
  /// logged for it, with their `steps` (replayed on a copy), so the word
  /// does not depend on when a host catches up.
  static std::uint64_t mobilityDigest(
      const mobility::MobilityModel& model,
      std::span<const sim::TimePoint> pending,
      std::span<const double> steps);
  static std::uint64_t channelDigest(const phy::Channel& channel);
  static std::uint64_t metricsDigest(const stats::MetricsCollector& collector,
                                     const obs::Registry* registry);
  static HostFingerprint host(const experiment::Host& host);
  /// Fingerprint of the whole world at its current scheduler time.
  static WorldFingerprint captureWorld(const experiment::World& world);
};

}  // namespace manet::ckpt
