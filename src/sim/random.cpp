#include "sim/random.hpp"

#include "util/assert.hpp"

namespace manet::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  MANET_EXPECTS(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  // Debiased modulo via rejection sampling.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t draw;
  do {
    draw = next();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

Duration Rng::uniformDuration(Duration lo, Duration hi) {
  // Same draw sequence as the raw uniformInt over ticks.
  return Duration(uniformInt(lo.ticks(), hi.ticks()));  // NOLINT-units(uniform draw over raw ticks is the definition site)
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent's state with the stream id through splitmix64; distinct
  // stream ids land in distant parts of the sequence space.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 29) ^ (stream * 0x9e3779b97f4a7c15ULL);
  std::uint64_t seed = splitmix64(mix);
  return Rng(seed ^ stream);
}

}  // namespace manet::sim
