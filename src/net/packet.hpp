// Packets carried by the simulated network. One tagged struct rather than a
// class hierarchy: packets are plain immutable data shared by shared_ptr
// between the transmitting MAC and every receiver.
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
// Sets the packet arena's block size (DESIGN.md §11.4); grow it on purpose.
static_assert(sizeof(Packet) == 48);

using PacketPtr = std::shared_ptr<const Packet>;

/// The paper's broadcast payload size (§4): 280 bytes.
inline constexpr std::size_t kDataPacketBytes = 280;

/// Allocates a mutable packet for the caller to fill, drawn from the
/// thread's current PacketPool when one is installed (each World installs
/// its own for its lifetime, DESIGN.md §11) and from the plain heap
/// otherwise. Implemented in net/packet_pool.cpp.
std::shared_ptr<Packet> makePacket();
/// Copy flavour: a pooled copy of `proto` (the host's relay copy).
std::shared_ptr<Packet> makePacket(const Packet& proto);

/// Makes an immutable data-broadcast packet.
inline PacketPtr makeDataPacket(BroadcastId bid, HostId sender) {
  auto p = makePacket();
  p->type = PacketType::kData;
  p->sender = sender;
  p->bid = bid;
  return p;
}

}  // namespace manet::net
