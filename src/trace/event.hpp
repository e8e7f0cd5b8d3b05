// Structured simulation events. The world and its hosts emit these through a
// TraceSink when tracing is enabled; recorders turn the stream into
// per-broadcast timelines, CSV files, or protocol statistics.
//
// Tracing is strictly observational: enabling it must not change a run
// (no RNG draws, no scheduling).
#pragma once

#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "phy/drop.hpp"
#include "sim/time.hpp"

namespace manet::trace {

enum class EventKind {
  kBroadcastOriginated,  // source issued a new broadcast request
  kTxStarted,            // a data frame hit the air (source or relay)
  kTxFinished,           // the data frame left the air
  kDelivered,            // a host received the packet intact, first time
  kDuplicateHeard,       // a host received an intact duplicate
  kDrop,                 // a frame was lost at a host; Event::drop says why
  kInhibited,            // the scheme cancelled a pending rebroadcast
  kHelloSent,            // a HELLO beacon was transmitted
  kAuditViolation,       // invariant auditor reported a violation (§9);
                         // never emitted unless the build sets MANET_AUDIT
};

inline constexpr int kEventKindCount = 9;

/// One event. `bid` is meaningful for the broadcast-related kinds; position
/// is the observing host's position at event time; `drop` is meaningful for
/// kDrop only.
struct Event {
  EventKind kind = EventKind::kDelivered;
  sim::TimePoint at{};
  net::HostId node = net::kInvalidHost;
  net::BroadcastId bid{};
  net::HostId from = net::kInvalidHost;  // sender, for rx-side events
  geom::Vec2 position{};
  phy::DropReason drop = phy::DropReason::kNone;
};

/// Receives every emitted event, in nondecreasing time order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void onEvent(const Event& event) = 0;
};

const char* eventKindName(EventKind kind);

}  // namespace manet::trace
