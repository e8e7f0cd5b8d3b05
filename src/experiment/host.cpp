#include "experiment/host.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "experiment/world.hpp"
#include "sim/inline_fn.hpp"
#include "util/assert.hpp"

namespace manet::experiment {
namespace {

// The terminal record's 2-bit codes; code 0 means "not terminal".
constexpr Host::PacketPhase kTerminalCodes[] = {
    Host::PacketPhase::kUnseen, Host::PacketPhase::kSent,
    Host::PacketPhase::kInhibited, Host::PacketPhase::kSource};

}  // namespace

Host::Host(World& world, net::HostId id,
           std::unique_ptr<mobility::MobilityModel> mobility, sim::Rng rng)
    : world_(world),
      id_(id),
      mobility_(std::move(mobility)),
      schemeRng_(rng.fork(1)),
      jitterRng_(rng.fork(2)) {
  MANET_EXPECTS(mobility_ != nullptr);
  auto& scheduler = world_.scheduler();
  // No position callback: the world's ModelPositions positions this node.
  mac_ = std::make_unique<mac::DcfMac>(scheduler, world_.channel(), id_,
                                       nullptr, rng.fork(3),
                                       world_.config().mac, this);
  hello_ = std::make_unique<net::HelloAgent>(scheduler, *mac_, table_,
                                             world_.config().hello,
                                             rng.fork(4));
}

void Host::start() { hello_->start(); }

net::BroadcastId Host::originateBroadcast() {
  const net::BroadcastId bid{id_, nextSeq_};
  nextSeq_ = nextSeq_.next();
  world_.metrics().onBroadcastStart(bid, id_, now(), world_.reachableFrom(id_));
  // Terminal at once: the MAC holds the packet by value, and the source
  // never relays its own broadcast.
  recordTerminal(bid, PacketPhase::kSource);
  emitTrace(trace::EventKind::kBroadcastOriginated, bid);
  mac_->enqueue(net::makeDataPacket(bid, id_), net::kDataPacketBytes);
  return bid;
}

Host::PacketPhase Host::phaseOf(net::BroadcastId bid) const {
  auto it = states_.find(bid);
  return it == states_.end() ? terminalPhase(bid) : it->second.phase;
}

Host::PacketPhase Host::terminalPhase(net::BroadcastId bid) const {
  const auto index = world_.metrics().indexOf(bid);
  return index ? terminal_.get(*index) : PacketPhase::kUnseen;
}

void Host::recordTerminal(net::BroadcastId bid, PacketPhase phase) {
  const auto index = world_.metrics().indexOf(bid);
  MANET_ASSERT(index.has_value());
  terminal_.set(*index, phase);
}

Host::PacketPhase Host::TerminalRecord::get(std::size_t index) const {
  const std::size_t byte = index / kPerByte;
  if (byte >= bytes_.size()) return PacketPhase::kUnseen;
  return kTerminalCodes[(bytes_[byte] >> (2 * (index % kPerByte))) & 3u];
}

void Host::TerminalRecord::set(std::size_t index, PacketPhase phase) {
  const auto* code =
      std::find(std::begin(kTerminalCodes) + 1, std::end(kTerminalCodes), phase);
  MANET_ASSERT(code != std::end(kTerminalCodes));
  MANET_ASSERT(get(index) == PacketPhase::kUnseen);
  const std::size_t byte = index / kPerByte;
  if (byte >= bytes_.size()) bytes_.resize(byte + 1, 0);
  const auto bits =
      static_cast<unsigned>(code - std::begin(kTerminalCodes));
  bytes_[byte] = static_cast<std::uint8_t>(
      bytes_[byte] | (bits << (2 * (index % kPerByte))));
}

void Host::onReceive(const phy::Frame& frame) {
  const net::Packet& packet = frame.packet;
  switch (packet.type) {
    case net::PacketType::kHello:
      table_.onHello(packet.sender, packet, now());
      return;
    case net::PacketType::kData:
      handleData(frame);
      return;
  }
}

void Host::handleData(const phy::Frame& frame) {
  const net::Packet& packet = frame.packet;
  const core::Reception rx{packet.sender, frame.srcPos, now()};
  if (auto it = states_.find(packet.bid); it != states_.end()) {
    handleDuplicate(it, rx);
  } else if (terminalPhase(packet.bid) != PacketPhase::kUnseen) {
    // Terminal: a host rebroadcasts at most once (§2.1).
    emitTrace(trace::EventKind::kDuplicateHeard, packet.bid, rx.from);
  } else {
    handleFirstReception(packet, rx);
  }
}

void Host::handleFirstReception(const net::Packet& packet,
                                const core::Reception& rx) {
  const net::BroadcastId bid = packet.bid;
  world_.metrics().onDelivered(bid, id_, now(), packet.hopCount + 1);
  emitTrace(trace::EventKind::kDelivered, bid, rx.from);
  auto decider = world_.policy().makeDecider(*this, rx);
  if (!decider->shouldProceed(*this)) {
    // S1 -> S5: inhibited before even entering the jitter wait.
    inhibit(bid);
    return;
  }
  BroadcastState& state = states_[bid];
  state.decider = std::move(decider);
  // Rebroadcast the same payload under the same (origin, seq) identity,
  // with ourselves as the relaying sender.
  state.packet = packet;
  state.packet.sender = id_;
  state.packet.hopCount = static_cast<std::uint16_t>(packet.hopCount + 1);
  // S2: wait a random number (0..jitterSlots) of slots, then hand to the MAC.
  state.phase = PacketPhase::kJitter;
  // The draw is a dimensionless slot count (0..jitterSlots), scaled by the
  // slot duration — uniformInt keeps the draw stream identical to the old
  // uniformTime call, which was the same raw draw mislabeled as a time.
  const sim::Duration jitter =
      jitterRng_.uniformInt(0, world_.config().jitterSlots) *
      world_.config().mac.slot;
  auto jitterCb = [this, bid] { submitToMac(bid); };
  static_assert(sim::InlineFn::storesInline<decltype(jitterCb)>(),
                "rebroadcast-jitter capture must fit the event node");
  state.jitterTimer =
      world_.scheduler().scheduleAfter(jitter, std::move(jitterCb));
}

void Host::submitToMac(net::BroadcastId bid) {
  auto it = states_.find(bid);
  MANET_ASSERT(it != states_.end());
  MANET_ASSERT(it->second.phase == PacketPhase::kJitter);
  it->second.phase = PacketPhase::kQueued;
  const mac::DcfMac::TxId txId =
      mac_->enqueue(it->second.packet, net::kDataPacketBytes);
  // An idle medium starts the frame inside enqueue, and onTxStarted has
  // then erased the entry: look it up again.
  it = states_.find(bid);
  if (it != states_.end()) it->second.txId = txId;
}

void Host::handleDuplicate(StateMap::iterator it, const core::Reception& rx) {
  const net::BroadcastId bid = it->first;
  BroadcastState& state = it->second;
  MANET_ASSERT(state.phase == PacketPhase::kJitter ||
               state.phase == PacketPhase::kQueued);
  emitTrace(trace::EventKind::kDuplicateHeard, bid, rx.from);
  // S4: let the scheme re-assess redundancy.
  if (state.decider->onDuplicate(*this, rx)) return;
  // S5: cancel whatever stage of waiting we were in.
  state.jitterTimer.cancel();
  if (state.txId != mac::DcfMac::kInvalidTx) {
    const bool cancelled = mac_->cancel(state.txId);
    // A queued frame is always still cancellable here: the MAC notifies us
    // synchronously at transmission start, which erases the entry first.
    MANET_ASSERT(cancelled);
  }
  states_.erase(it);
  inhibit(bid);
}

void Host::inhibit(net::BroadcastId bid) {
  recordTerminal(bid, PacketPhase::kInhibited);
  world_.metrics().onFinalized(bid, id_, now());
  emitTrace(trace::EventKind::kInhibited, bid);
}

void Host::onTxStarted(mac::DcfMac::TxId, const net::Packet& packet) {
  if (packet.type != net::PacketType::kData) return;
  emitTrace(trace::EventKind::kTxStarted, packet.bid);
  auto it = states_.find(packet.bid);
  if (it == states_.end()) {
    // The initial transmission is not a REbroadcast; nothing to count.
    MANET_ASSERT(terminalPhase(packet.bid) == PacketPhase::kSource);
    return;
  }
  // S3: the rebroadcast is on the air; the decision is final.
  MANET_ASSERT(it->second.phase == PacketPhase::kQueued);
  states_.erase(it);
  recordTerminal(packet.bid, PacketPhase::kSent);
  world_.metrics().onRebroadcast(packet.bid, id_, now());
}

void Host::onTxFinished(mac::DcfMac::TxId, const net::Packet& packet) {
  if (packet.type == net::PacketType::kHello) {
    world_.metrics().onHelloSent(id_);
    emitTrace(trace::EventKind::kHelloSent, net::BroadcastId{});
    return;
  }
  world_.metrics().onFinalized(packet.bid, id_, now());
  emitTrace(trace::EventKind::kTxFinished, packet.bid);
}

void Host::onCorruptedFrame(const phy::Frame& frame, phy::DropReason reason) {
  if (world_.traceSink() == nullptr) return;
  const net::Packet& packet = frame.packet;
  emitTrace(trace::EventKind::kDrop,
            packet.type == net::PacketType::kData ? packet.bid
                                                  : net::BroadcastId{},
            packet.sender, reason);
}

void Host::emitTrace(trace::EventKind kind, net::BroadcastId bid,
                     net::HostId from, phy::DropReason drop) {
  trace::TraceSink* sink = world_.traceSink();
  if (sink == nullptr) return;
  trace::Event event;
  event.kind = kind;
  event.at = now();
  event.node = id_;
  event.bid = bid;
  event.from = from;
  // A peek, not position(): querying the model would advance its
  // integrator at a time the untraced run never asks for.
  event.position = mobility_->peekPositionAt(now());
  event.drop = drop;
  sink->onEvent(event);
}

int Host::neighborCount() const {
  if (world_.config().neighborSource == NeighborSource::kOracle) {
    return world_.oracleNeighborCount(id_);
  }
  return table_.neighborCount(now());
}

std::vector<net::HostId> Host::neighborIds() const {
  if (world_.config().neighborSource == NeighborSource::kOracle) {
    return world_.oracleNeighbors(id_);
  }
  return table_.neighborIds(now());
}

const std::vector<net::HostId>* Host::neighborsOf(net::HostId h) const {
  if (world_.config().neighborSource == NeighborSource::kOracle) {
    world_.channel().nodesInRange(h, oracleNeighbors_);
    return &oracleNeighbors_;
  }
  return table_.neighborsOf(h, now());
}

geom::Vec2 Host::position() const { return mobility_->positionAt(now()); }

double Host::radius() const { return world_.config().phy.radiusMeters; }

sim::TimePoint Host::now() const { return world_.scheduler().now(); }

}  // namespace manet::experiment
