#include "util/env.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace manet::util {

std::int64_t envInt(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const char* end = raw + std::strlen(raw);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(raw, end, value, 10);
  if (ec != std::errc{} || ptr != end) {
    throw EnvError(std::string(name) + "=\"" + raw +
                   "\" is not a base-10 integer in range");
  }
  return value;
}

std::optional<std::string> envString(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string(raw);
}

}  // namespace manet::util
