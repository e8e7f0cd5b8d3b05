// Whole-string integer parsing for the examples' command lines: "abc", "3x"
// or an out-of-range value is a usage error in the example instead of a 0
// that trips a library precondition.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <string>

namespace manet::examples {

/// Parses all of `text` as a base-10 integer in [lo, hi] into `out`.
/// Returns false, leaving `out` untouched, when it is not one.
template <typename Int>
bool parseInt(const std::string& text, long long lo, long long hi, Int& out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (value < lo || value > hi) return false;
  out = static_cast<Int>(value);
  return true;
}

}  // namespace manet::examples
