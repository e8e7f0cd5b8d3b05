#include "mac/dcf.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace manet::mac {

DcfMac::DcfMac(sim::Scheduler& scheduler, phy::Channel& channel,
               net::HostId self, phy::Channel::PositionFn position,
               sim::Rng rng, MacParams params, Upper* upper)
    : scheduler_(scheduler),
      channel_(channel),
      self_(self),
      rng_(rng),
      params_(params),
      upper_(upper) {
  MANET_EXPECTS(upper != nullptr);
  MANET_EXPECTS(params_.slot > sim::Duration{});
  MANET_EXPECTS(params_.difs >= sim::Duration{});
  MANET_EXPECTS(params_.cwBroadcast >= 0);
  MANET_AUDIT_HOOK(audit_ = audit::DcfAudit(self_));
  // A whole backoff is one countdown on the scheduler's timing wheel.
  MANET_EXPECTS(params_.difs + params_.slot * params_.cwBroadcast <
                sim::Scheduler::kWheelHorizon);
  if (position) {
    channel_.attach(self_, this, std::move(position));
  } else {
    channel_.attach(self_, this);
  }
}

int DcfMac::drawBackoff() {
  const int slots =
      static_cast<int>(rng_.uniformInt(0, params_.cwBroadcast));
  obs::add(obs::Counter::kMacBackoffDraws);
  obs::observe(obs::Hist::kMacBackoffSlots, slots);
  return slots;
}

DcfMac::TxId DcfMac::enqueue(net::Packet packet, std::size_t bytes) {
  MANET_EXPECTS(bytes > 0);
  const TxId id = nextTxId_++;
  queue_.push_back(Pending{id, std::move(packet), bytes});
  ensureBackoffIfBusy();
  if (!transmitting_) reschedule();
  return id;
}

void DcfMac::ensureBackoffIfBusy() {
  // 802.11 DCF: a station that wants to transmit while the medium is busy
  // (and owes no backoff yet) must invoke the backoff procedure — otherwise
  // every deferred station would fire in the same instant when the medium
  // frees up (§2.2.3 describes exactly that failure mode).
  if (mediumBusy_ && !queue_.empty() && backoffRemaining_ < 0) {
    backoffRemaining_ = drawBackoff();
  }
}

bool DcfMac::cancel(TxId id) {
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [id](const Pending& p) { return p.id == id; });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  // No backoff owed, so no countdown runs: only a DIFS wait can be pending.
  if (queue_.empty() && backoffRemaining_ < 0) difsTimer_.cancel();
  return true;
}

void DcfMac::onMediumBusy() {
  mediumBusy_ = true;
  difsTimer_.cancel();  // abandon a pending DIFS expiry
  freezeBackoff();
  ensureBackoffIfBusy();
}

void DcfMac::freezeBackoff() {
  if (!backoff_.pending()) return;
  backoffRemaining_ = static_cast<int>(backoff_.periodsLeft());
  backoff_.cancel();
}

void DcfMac::onMediumIdle() {
  mediumBusy_ = false;
  idleSince_ = scheduler_.now();
  reschedule();
}

void DcfMac::onFrameReceived(const phy::Frame& frame, phy::DropReason drop) {
  if (drop != phy::DropReason::kNone) {
    ++framesDroppedCorrupt_;
    upper_->onCorruptedFrame(frame, drop);
    return;
  }
  upper_->onReceive(frame);
}

void DcfMac::onTxComplete() {
  MANET_ASSERT(transmitting_);
  transmitting_ = false;
  MANET_AUDIT_HOOK(audit_.onTxEnd(scheduler_.now()));
  const TxId finished = onAirId_;
  const net::Packet packet = std::exchange(onAirPacket_, {});
  onAirId_ = kInvalidTx;
  // Post-backoff: owed after every transmission, and it counts down while
  // the queue is empty too, so a long-idle station may again transmit
  // immediately after DIFS.
  backoffRemaining_ = drawBackoff();
  upper_->onTxFinished(finished, packet);
  if (!transmitting_) reschedule();
}

void DcfMac::reschedule() {
  difsTimer_.cancel();
  freezeBackoff();
  // Physical idle re-enters through onMediumIdle.
  if (transmitting_ || mediumBusy_) return;
  if (queue_.empty() && backoffRemaining_ < 0) return;

  const sim::TimePoint now = scheduler_.now();
  const sim::TimePoint difsEnd = idleSince_ + params_.difs;
  if (now < difsEnd) {
    difsTimer_ = scheduler_.schedule(difsEnd, [this] { reschedule(); });
    return;
  }
  if (backoffRemaining_ < 0) {
    // Idle >= DIFS, no backoff owed: transmit at once.
    MANET_ASSERT(!queue_.empty());
    startTransmission();
    return;
  }
  if (backoffRemaining_ == 0) {
    backoffRemaining_ = -1;
    if (!queue_.empty()) startTransmission();
    return;
  }
  // Count the owed idle slots down as one event. onMediumBusy() freezes the
  // countdown mid-slot (partial slots do not count); the scheduler runs it
  // exactly where a slot-by-slot re-arm would end (DESIGN.md §11.2).
  backoff_ = scheduler_.scheduleCountdown(params_.slot, backoffRemaining_,
                                          [this] { backoffDone(); });
}

void DcfMac::backoffDone() {
  MANET_ASSERT(!mediumBusy_ && !transmitting_);
  backoffRemaining_ = 0;
  reschedule();
}

void DcfMac::startTransmission() {
  MANET_ASSERT(!queue_.empty());
  MANET_ASSERT(!transmitting_);
  Pending head = std::move(queue_.front());
  queue_.pop_front();
  transmitting_ = true;
  MANET_AUDIT_HOOK(audit_.onTxStart(scheduler_.now()));
  onAirId_ = head.id;
  onAirPacket_ = std::move(head.packet);
  ++framesSent_;
  channel_.transmit(self_, onAirPacket_, head.bytes);
  upper_->onTxStarted(head.id, onAirPacket_);
}

}  // namespace manet::mac
