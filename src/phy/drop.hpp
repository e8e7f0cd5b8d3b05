// Why a frame failed to arrive intact at a receiver. Shared vocabulary of
// the channel (which classifies the failure), the MAC (which reports it
// upward) and the trace layer (kDrop events).
#pragma once

namespace manet::phy {

enum class DropReason {
  kNone,        // delivered intact
  kCollision,   // overlapped another arrival at the receiver
  kHalfDuplex,  // the receiver was transmitting during the arrival
};

inline const char* dropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kNone: return "none";
    case DropReason::kCollision: return "collision";
    case DropReason::kHalfDuplex: return "half_duplex";
  }
  return "?";
}

inline constexpr int kDropReasonCount = 3;

}  // namespace manet::phy
