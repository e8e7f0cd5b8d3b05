// Streaming FNV-1a 64-bit digest behind every state fingerprint
// (DESIGN.md §14): each engine subsystem and host component folds its raw
// state into one word (MAC machines, decider state, mobility integrators),
// and the output digests of bench/perf hash simulation results with it.
// Deterministic, platform-independent: every add() folds an explicit
// little-endian byte expansion, never raw object memory, so padding and
// endianness cannot leak in.
//
// src/ckpt/ is a sanctioned raw-tick home (tools/manet_lint.py U3): time
// values are folded as their raw microsecond tick counts.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace manet::ckpt {

class Digest {
 public:
  static constexpr std::uint64_t kOffset = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void addByte(std::uint8_t b) {
    state_ = (state_ ^ b) * kPrime;
  }
  void addBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) addByte(p[i]);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) addByte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(std::uint32_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(std::int32_t v) { add(static_cast<std::int64_t>(v)); }
  void add(bool v) { addByte(v ? 1 : 0); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(sim::TimePoint t) { add(t.ticks()); }
  void add(sim::Duration d) { add(d.ticks()); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    addBytes(s.data(), s.size());
  }

  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = kOffset;
};

}  // namespace manet::ckpt
