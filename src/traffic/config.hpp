// Traffic workload configuration (DESIGN.md §12): which arrival process
// produces the broadcast-request stream, and which source model picks the
// originating host for each request. The two compose independently, so a
// Poisson stream can come from uniform sources while a CBR stream hammers a
// hotspot. Everything defaults to the paper's single workload — U(0,
// interarrivalMax) gaps from uniformly random sources — and that default is
// bit-identical to the pre-subsystem inline loop: the generator consumes the
// same sim::Rng stream with the same draw order (gap, then source, per
// request).
#pragma once

#include <cstdint>

#include "net/ids.hpp"
#include "sim/time.hpp"

namespace manet::traffic {

/// One broadcast request of the workload stream. `at` is absolute simulation
/// time; `seq` numbers requests in stream order — the per-broadcast sequence
/// id delivery accounting joins on.
struct Request {
  sim::TimePoint at{};
  net::HostId source{};
  std::uint32_t seq = 0;
};

struct TrafficConfig {
  // --- arrival process -----------------------------------------------------
  enum class Arrival {
    kUniform,   // gaps ~ U(0, interarrivalMax) — the paper's workload (§4)
    kPoisson,   // exponential gaps at `poissonRatePerSecond`
    kPeriodic,  // constant-bit-rate: one request every `period`
    kBurst,     // on/off: bursts of `burstLength` closely spaced requests
                // separated by exponential idle gaps (MMPP-style)
  };
  Arrival arrival = Arrival::kUniform;

  /// kPoisson: mean request rate (requests per simulated second, > 0).
  double poissonRatePerSecond = 1.0;

  /// kPeriodic: fixed gap between consecutive requests (> 0).
  sim::Duration period = sim::kSecond;

  /// kBurst: requests per burst (>= 1), max intra-burst gap (gaps are
  /// U(0, burstGapMax)), and the mean of the exponential idle gap that
  /// precedes each burst.
  int burstLength = 8;
  sim::Duration burstGapMax = 50 * sim::kMillisecond;
  sim::Duration burstIdleMean = 4 * sim::kSecond;

  // --- source model --------------------------------------------------------
  enum class Sources {
    kUniform,  // every host equally likely (the paper's model)
    kHotspot,  // requests come only from a k-host hotspot set
    kZone,     // requests come from hosts whose initial position lies in a
               // map-relative rectangle (falls back to all hosts when empty)
  };
  Sources sources = Sources::kUniform;

  /// kHotspot: size of the hotspot set, hosts 0..k-1.
  int hotspotCount = 3;

  /// kZone: the source rectangle as fractions of the map side, so the same
  /// config works at every map scale. Defaults to the lower-left quadrant.
  double zoneX0 = 0.0;
  double zoneY0 = 0.0;
  double zoneX1 = 0.5;
  double zoneY1 = 0.5;
};

}  // namespace manet::traffic
