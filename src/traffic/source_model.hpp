// Source models (DESIGN.md §12): which host originates each broadcast
// request. Orthogonal to the arrival process — every model consumes exactly
// one draw per request, so swapping the source model never shifts the
// arrival gaps drawn from the shared workload stream.
#pragma once

#include <memory>
#include <vector>

#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "sim/random.hpp"
#include "traffic/config.hpp"

namespace manet::traffic {

class SourceModel {
 public:
  virtual ~SourceModel() = default;

  /// The originating host of the next request. Called once per request in
  /// stream order; consumes exactly one draw from `rng`.
  virtual net::HostId pick(sim::Rng& rng) = 0;
};

/// The paper's model: every host equally likely. Draw-for-draw identical to
/// the pre-subsystem inline loop (one uniformInt(0, numHosts-1) per request).
class UniformSources final : public SourceModel {
 public:
  explicit UniformSources(int numHosts);
  net::HostId pick(sim::Rng& rng) override {
    return net::HostId{
        static_cast<std::uint32_t>(rng.uniformInt(0, numHosts_ - 1))};
  }

 private:
  int numHosts_;
};

/// Uniform over an explicit candidate set (hotspot and zone models both
/// reduce to this once the set is computed).
class SubsetSources final : public SourceModel {
 public:
  explicit SubsetSources(std::vector<net::HostId> candidates);
  net::HostId pick(sim::Rng& rng) override {
    return candidates_[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(candidates_.size()) - 1))];
  }
  const std::vector<net::HostId>& candidates() const { return candidates_; }

 private:
  std::vector<net::HostId> candidates_;
};

/// Builds the configured model.
///   kUniform  — all hosts.
///   kHotspot  — hosts 0..k-1 (k clamped to numHosts).
///   kZone     — hosts whose entry in `initialPositions` (indexed by id,
///               may be empty for non-zone models) lies inside the
///               map-relative rectangle; falls back to all hosts when the
///               zone is empty so the workload never stalls.
std::unique_ptr<SourceModel> makeSourceModel(
    const TrafficConfig& config, int numHosts,
    const std::vector<geom::Vec2>& initialPositions, double mapMeters);

}  // namespace manet::traffic
