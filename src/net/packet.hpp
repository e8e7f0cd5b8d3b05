// Packets carried by the simulated network. One tagged struct rather than a
// class hierarchy: packets are small plain values, copied into the MAC queue
// and the frame on the air; receivers read the on-air copy by reference.
#pragma once

#include <memory>
#include <vector>

#include "net/ids.hpp"
#include "sim/time.hpp"

namespace manet::net {

enum class PacketType {
  kData,   // an application broadcast being propagated
  kHello,  // periodic neighbor-discovery beacon
};

/// An advertised one-hop neighbor set: built once per HELLO by the sender
/// and shared, immutable, by the packet and every receiver's table entry
/// (DESIGN.md §4.2).
using NeighborList = std::shared_ptr<const std::vector<HostId>>;

struct Packet {
  PacketType type = PacketType::kData;
  HostId sender = kInvalidHost;  // the (re)transmitting host

  /// Hops travelled from the broadcast origin (0 on the source's own
  /// transmission; each relay increments it).
  std::uint16_t hopCount = 0;

  // --- data broadcast fields ---
  BroadcastId bid{};

  // --- HELLO fields ---
  /// The sender's one-hop neighbor set N_h, piggybacked so receivers can
  /// build the two-hop sets N_{x,h} the neighbor-coverage scheme needs.
  /// Null when the HELLO carries no list.
  NeighborList helloNeighbors;
  /// The sender's current hello interval; with the dynamic-hello-interval
  /// scheme each host announces its own interval so receivers can age the
  /// entry correctly (§4.3).
  sim::Duration helloInterval{};
};
// Every MAC queue entry, on-air frame and relay state holds one by value
// (DESIGN.md §11.4); grow it on purpose.
static_assert(sizeof(Packet) == 48);

/// The paper's broadcast payload size (§4): 280 bytes.
inline constexpr std::size_t kDataPacketBytes = 280;

/// Makes a data-broadcast packet.
inline Packet makeDataPacket(BroadcastId bid, HostId sender) {
  Packet p;
  p.type = PacketType::kData;
  p.sender = sender;
  p.bid = bid;
  return p;
}

}  // namespace manet::net
