// Wall-clock profiling scopes (DESIGN.md §10).
//
// A ProfileScope measures the host wall-clock time spent inside a region
// (world build, event loop, metrics collection, ...) and accumulates
// {calls, total nanoseconds} into the thread's current obs::Registry under a
// stable scope name. Scopes aggregate per thread and merge with the
// registries, so a MANET_THREADS sweep reports the summed time across
// workers (comparable to RunResult::wallSeconds).
//
// Determinism: wall-clock readings feed *only* the metrics registry, never
// simulation state — this translation unit (src/obs/profile*) and
// experiment/runner (RunResult::wallSeconds) are the only sanctioned
// steady_clock homes, and tools/lint_determinism.py enforces exactly that
// boundary. Scope names and
// call counts are deterministic; the nanosecond totals are not and are
// excluded from the byte-identical metrics comparisons.
#pragma once

#include <cstdint>

namespace manet::obs {

/// Monotonic wall-clock reading in nanoseconds (the only exported seam for
/// profiling time; implemented in profile.cpp, the lint-sanctioned home).
std::uint64_t monotonicNanos();

/// RAII profiling region. Cheap no-op when no registry is installed: the
/// clock is only read while metrics collection is live.
class ProfileScope {
 public:
  /// `scope` must be a stable string literal (stored by pointer until
  /// destruction, then used as the aggregation key).
  explicit ProfileScope(const char* scope);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  const char* scope_;
  std::uint64_t startNanos_ = 0;
  bool active_ = false;
};

}  // namespace manet::obs
