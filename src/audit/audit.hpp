// Simulation invariant auditor (DESIGN.md §9).
//
// The paper's RE/SRB tables are only as trustworthy as the discrete-event
// engine underneath them: a non-monotonic event pop, an unbalanced channel
// reception, or an illegal MAC transition silently corrupts every number we
// publish. This subsystem compiles runtime checks for those invariants into
// the engine when the build sets -DMANET_AUDIT=ON (macro
// MANET_AUDIT_ENABLED=1).
//
// Two layers:
//  * Checker classes (audit/invariants.hpp) — plain, always-compiled state
//    machines that validate an event sequence and report violations. Tests
//    drive them directly with corrupted sequences in any build config.
//  * Component hooks — calls into the checkers from Scheduler, Channel,
//    DcfMac, NeighborTable, and MetricsCollector, wrapped in
//    MANET_AUDIT_HOOK so an audit-off build contains zero audit code or
//    data and its output is byte-identical to a never-instrumented binary.
//
// Violations route through a per-thread sink (each World owns the thread it
// runs on, including under the parallel cell runner). The default sink
// prints the violation with full event context and aborts: a corrupt engine
// must never finish a run quietly. Tests install a capturing sink instead.
#pragma once

#include <cstdint>
#include <string>

#include "net/ids.hpp"
#include "sim/time.hpp"

#ifndef MANET_AUDIT_ENABLED
#define MANET_AUDIT_ENABLED 0
#endif

#if MANET_AUDIT_ENABLED
// Statement-level hook: expands to the statement when auditing is compiled
// in, to nothing otherwise. Keep side effects out of hook arguments.
#define MANET_AUDIT_HOOK(stmt) \
  do {                         \
    stmt;                      \
  } while (false)
#else
#define MANET_AUDIT_HOOK(stmt) \
  do {                         \
  } while (false)
#endif

namespace manet::audit {

/// Compile-time audit switch, usable in ordinary `if` conditions.
inline constexpr bool kEnabled = MANET_AUDIT_ENABLED != 0;

/// One invariant violation, with the event context the checker saw.
struct Violation {
  /// Stable dotted identifier, e.g. "scheduler.monotonic-pop".
  const char* invariant = "";
  /// Simulation time the violation was detected at.
  sim::TimePoint at{};
  /// The host/node involved, or net::kInvalidHost when not applicable.
  net::HostId node = net::kInvalidHost;
  /// Human-readable specifics (observed vs. expected values).
  std::string detail;
};

/// Receives violations for the current thread's run.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void onViolation(const Violation& violation) = 0;
};

/// Installs `sink` for this thread and returns the previous one (restore it
/// when the scope ends). nullptr restores the default print-and-abort sink.
Sink* setSink(Sink* sink);
Sink* currentSink();

/// The default print-and-abort sink (what an unregistered thread uses).
/// Chaining sinks forward here to preserve fail-stop semantics.
Sink& defaultSink();

/// Reports a violation to the thread's sink and bumps the thread counter.
/// With the default sink this prints context to stderr and aborts.
void report(Violation violation);

/// Violations reported on this thread since the last reset.
std::uint64_t violationCount();
void resetViolationCount();

/// RAII: capture violations (count only, no abort) for a scope. Used by
/// tests and by harnesses that want to scan rather than crash.
class ScopedCountingSink final : public Sink {
 public:
  ScopedCountingSink();
  ~ScopedCountingSink() override;
  ScopedCountingSink(const ScopedCountingSink&) = delete;
  ScopedCountingSink& operator=(const ScopedCountingSink&) = delete;

  void onViolation(const Violation& violation) override;

  std::uint64_t count() const { return count_; }
  /// The most recent violation (valid when count() > 0).
  const Violation& last() const { return last_; }

 private:
  Sink* previous_ = nullptr;
  std::uint64_t count_ = 0;
  Violation last_;
};

}  // namespace manet::audit
