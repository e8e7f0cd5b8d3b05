// State fingerprints of a World at a checkpoint anchor (DESIGN.md §14).
//
// Resume rebuilds a world by deterministic replay from t=0, so the stored
// state is only ever an equality oracle: one 64-bit ckpt::Digest word per
// subsystem (and per host component) is as exact as a field-by-field copy,
// up to hash collisions. Only what resume itself needs stays raw: the
// resolved config blob, the anchor and horizon, and whether an obs registry
// was collecting at capture time.
//
// Blob layout (all integers little-endian, fixed width, no tags):
//   magic       "MCKPT1\n"      (7 bytes)
//   version     u32             (kFormatVersion; mismatch rejects the file)
//   config      u64 length + bytes
//   anchor      i64 ticks
//   horizon     i64 ticks
//   hasRegistry u8
//   world words u64 x WorldFingerprint::kParts
//   host count  u64
//   host words  u64 x HostFingerprint::kParts, per host in id order
//   checksum    u64             (FNV-1a 64 of every preceding byte)
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace manet::ckpt {

struct HostFingerprint {
  enum Part {
    kState,  // id, up, nextSeq
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
  enum Part { kScheduler, kChannel, kTraffic, kFault, kMetrics, kParts };
  static constexpr std::array<const char*, kParts> kNames = {
      "scheduler", "channel", "traffic", "fault", "metrics"};

  std::vector<std::uint8_t> configBlob;  // serialized resolved ScenarioConfig
  sim::TimePoint anchor{};               // scheduler now() at capture
  sim::TimePoint horizon{};
  bool hasRegistry = false;  // obs registry installed at capture time
  std::array<std::uint64_t, kParts> words{};
  std::vector<HostFingerprint> hosts;  // indexed by host id
  friend bool operator==(const WorldFingerprint&,
                         const WorldFingerprint&) = default;
};

/// The complete checkpoint blob (layout above).
std::vector<std::uint8_t> encodeFingerprint(const WorldFingerprint& fp);

/// Parses and verifies a blob: magic, version, checksum, exact length.
/// Throws Error on any mismatch, truncation, or bit flip.
WorldFingerprint decodeFingerprint(const std::vector<std::uint8_t>& bytes);

/// One line per mismatched subsystem or host (empty == equal). This is what
/// the resume oracle prints when replay diverges from the checkpoint.
std::vector<std::string> diffFingerprints(const WorldFingerprint& a,
                                          const WorldFingerprint& b);

}  // namespace manet::ckpt
