// Deterministic random number generation.
//
// Every entity in the simulator (host, MAC, mobility model, traffic source)
// owns an independent stream forked from a master seed, so adding an entity
// or reordering draws in one component never perturbs another — runs are
// reproducible bit-for-bit from a single seed.
//
// Generator: xoshiro256++ seeded via splitmix64 (public-domain algorithms by
// Blackman & Vigna), small, fast, and statistically solid for simulation use.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::sim {

/// splitmix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// Deterministic PRNG with value semantics; cheap to copy and fork.
class Rng {
 public:
  /// Seeds the generator; any 64-bit value (including 0) is acceptable.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit output. Inline, with the two uniforms below: the
  /// coverage sampler takes two draws per sample (DESIGN.md §7.4).
  std::uint64_t next() {
    // xoshiro256++
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    MANET_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform time span in [lo, hi] (inclusive, microsecond granularity).
  Duration uniformDuration(Duration lo, Duration hi);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Derives an independent child stream. Streams forked with distinct
  /// `stream` values from the same parent are statistically independent.
  Rng fork(std::uint64_t stream) const;

 private:
  friend struct manet::ckpt::StateAccess;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace manet::sim
