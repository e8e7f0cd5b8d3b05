// IEEE 802.11 DCF, broadcast path only — what the paper's schemes ride on
// (§2.1/§2.2.3/§4):
//  * CSMA/CA with slotted backoff; DSSS timing (slot 20 us, DIFS 50 us).
//  * Broadcast frames are never acknowledged, never retransmitted, and use
//    no RTS/CTS, so their contention window stays at the DSSS minimum (31).
//  * If the medium has been idle for >= DIFS and no backoff is owed, a frame
//    transmits immediately — the very mechanism §2.2.3 identifies as a
//    collision source. A station that finds the medium busy at an access
//    attempt draws a backoff (the DCF rule).
//  * After every own transmission the station owes a post-backoff which also
//    counts down while idle with an empty queue.
//  * The backoff counter freezes while the medium is busy and resumes after
//    the medium has again been idle for DIFS. Corrupted frames still hold
//    the medium busy; the MAC drops them on FCS failure.
//
// The upper layer is told the moment its frame actually starts transmitting
// (`onTxStarted`) — the "wait until the transmission actually starts" point
// in the paper's scheme steps S2/S3 — and may cancel a queued frame any
// time before that (step S5).
#pragma once

#include <cstdint>
#include <deque>

#include "audit/audit.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

#if MANET_AUDIT_ENABLED
#include "audit/invariants.hpp"
#endif

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::mac {

struct MacParams {
  sim::Duration slot{20};   // us
  sim::Duration difs{50};   // us
  int cwBroadcast = 31;  // contention window for broadcast frames
};

class DcfMac final : public phy::Channel::Listener {
 public:
  /// Identifies one queued frame; used to cancel pending rebroadcasts.
  using TxId = std::uint64_t;
  static constexpr TxId kInvalidTx = 0;

  /// Upcalls into the network layer.
  class Upper {
   public:
    virtual ~Upper() = default;
    /// The frame with this TxId just hit the air (no longer cancellable).
    virtual void onTxStarted(TxId id, const net::Packet& packet) = 0;
    /// The frame finished transmitting.
    virtual void onTxFinished(TxId id, const net::Packet& packet) = 0;
    /// An intact frame arrived (corrupted frames are dropped by the MAC).
    virtual void onReceive(const phy::Frame& frame) = 0;
    /// A frame arrived but failed its FCS; `reason` says why (collision or
    /// half-duplex loss).
    virtual void onCorruptedFrame(const phy::Frame& frame,
                                  phy::DropReason reason) {
      (void)frame;
      (void)reason;
    }
  };

  /// Constructs the MAC and attaches it to `channel` as node `self` with the
  /// given position callback, or, when `position` is empty, positioned by
  /// the channel's PositionSource.
  DcfMac(sim::Scheduler& scheduler, phy::Channel& channel, net::HostId self,
         phy::Channel::PositionFn position, sim::Rng rng, MacParams params,
         Upper* upper);

  DcfMac(const DcfMac&) = delete;
  DcfMac& operator=(const DcfMac&) = delete;

  /// Queues a broadcast frame; FIFO order. Returns its TxId. When the
  /// medium has been idle for DIFS and no backoff is owed, the frame starts
  /// inside this call: Upper::onTxStarted runs before enqueue returns.
  TxId enqueue(net::Packet packet, std::size_t bytes);

  /// Removes a queued frame. Returns true if it was still waiting; false if
  /// it already started transmitting (or already left the queue).
  bool cancel(TxId id);

  /// True when nothing is queued or on the air.
  bool quiescent() const { return queue_.empty() && !transmitting_; }

  std::size_t queueDepth() const { return queue_.size(); }
  net::HostId self() const { return self_; }

  // --- statistics ---
  std::uint64_t framesSent() const { return framesSent_; }
  std::uint64_t framesDroppedCorrupt() const { return framesDroppedCorrupt_; }

  // --- phy::Channel::Listener ---
  void onMediumBusy() override;
  void onMediumIdle() override;
  void onFrameReceived(const phy::Frame& frame,
                       phy::DropReason drop) override;
  void onTxComplete() override;

 private:
  friend struct manet::ckpt::StateAccess;

  struct Pending {
    TxId id;
    net::Packet packet;
    std::size_t bytes;
  };

  /// Draws a backoff from [0, cwBroadcast] and records the draw.
  int drawBackoff();
  /// Re-evaluates what the station should be doing now that state changed.
  void reschedule();
  /// Stops a running backoff countdown, keeping the slots it still owes
  /// (a partial slot does not count).
  void freezeBackoff();
  /// The backoff counter reached zero: re-evaluates.
  void backoffDone();
  /// Backoff slots owed right now, -1 for none: while a countdown runs,
  /// the slots it has yet to count down.
  int slotsOwed() const {
    return backoff_.pending() ? static_cast<int>(backoff_.periodsLeft())
                              : backoffRemaining_;
  }
  void startTransmission();
  void ensureBackoffIfBusy();

  sim::Scheduler& scheduler_;
  phy::Channel& channel_;
  net::HostId self_;
  sim::Rng rng_;
  MacParams params_;
  Upper* upper_;

  std::deque<Pending> queue_;
  TxId nextTxId_ = 1;

  bool transmitting_ = false;
  TxId onAirId_ = kInvalidTx;
  net::Packet onAirPacket_;  // reset to {} while nothing is on the air

  bool mediumBusy_ = false;
  sim::TimePoint idleSince_{};
  /// -1: no backoff owed. While `backoff_` runs it is the count the
  /// countdown was armed with; slotsOwed() reads what is left.
  int backoffRemaining_ = -1;
  sim::Scheduler::Handle difsTimer_;
  /// One countdown per backoff run, one slot per period (DESIGN.md §11.2).
  sim::Scheduler::Handle backoff_;

  std::uint64_t framesSent_ = 0;
  std::uint64_t framesDroppedCorrupt_ = 0;

#if MANET_AUDIT_ENABLED
  /// Mirrors the on-air machine and flags illegal transitions.
  audit::DcfAudit audit_;
#endif
};

}  // namespace manet::mac
