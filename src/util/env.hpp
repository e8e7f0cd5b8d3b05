// Helpers for reading scaling knobs from the environment so benchmarks can be
// run quickly by default and at paper scale on demand.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace manet::util {

/// A malformed knob: what envInt throws. what() names the variable and its
/// value.
struct EnvError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Returns the integer value of environment variable `name`, or `fallback`
/// when it is unset or empty. Throws EnvError (a std::invalid_argument),
/// naming the variable and its value, when the value is not a whole base-10
/// integer in the range of std::int64_t ("20x" and "1e4" are errors, not 20
/// and 1).
std::int64_t envInt(const char* name, std::int64_t fallback);

/// Returns the string value of environment variable `name` if set.
std::optional<std::string> envString(const char* name);

}  // namespace manet::util
