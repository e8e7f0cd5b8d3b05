// State fingerprints of a World at an event boundary (DESIGN.md §14).
//
// A fingerprint is an equality oracle: one 64-bit ckpt::Digest word per
// subsystem and one per host component, as exact as a field-by-field copy
// up to hash collisions. Two worlds built from the same config and driven
// to the same simulated time must capture equal fingerprints; where they
// differ, diffFingerprints names the subsystems and host components.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace manet::ckpt {

struct HostFingerprint {
  enum Part {
    kState,  // id, nextSeq
    kSchemeRng,
    kJitterRng,
    kMac,
    kHello,
    kMobility,
    kNeighborTable,
    kBroadcastStates,
    kParts
  };
  static constexpr std::array<const char*, kParts> kNames = {
      "state",    "schemeRng", "jitterRng",     "mac",
      "hello",    "mobility",  "neighborTable", "broadcastStates"};

  std::array<std::uint64_t, kParts> words{};
  friend bool operator==(const HostFingerprint&,
                         const HostFingerprint&) = default;
};

struct WorldFingerprint {
  enum Part { kScheduler, kChannel, kTraffic, kMetrics, kParts };
  static constexpr std::array<const char*, kParts> kNames = {
      "scheduler", "channel", "traffic", "metrics"};

  std::array<std::uint64_t, kParts> words{};
  std::vector<HostFingerprint> hosts;  // indexed by host id
  friend bool operator==(const WorldFingerprint&,
                         const WorldFingerprint&) = default;
};

/// One line per mismatched subsystem or host (empty == equal).
std::vector<std::string> diffFingerprints(const WorldFingerprint& a,
                                          const WorldFingerprint& b);

}  // namespace manet::ckpt
