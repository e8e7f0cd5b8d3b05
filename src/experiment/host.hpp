// One mobile host: mobility + MAC + HELLO agent + per-broadcast protocol
// state machine. Owns the S1-S5 skeleton every scheme shares (see
// core/policy.hpp); the scheme itself is a PacketDecider.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/policy.hpp"
#include "mac/dcf.hpp"
#include "mobility/model.hpp"
#include "net/hello.hpp"
#include "net/neighbor_table.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "trace/event.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::experiment {

class World;

class Host final : public mac::DcfMac::Upper, public core::HostView {
 public:
  Host(World& world, net::HostId id,
       std::unique_ptr<mobility::MobilityModel> mobility, sim::Rng rng);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Starts periodic agents (HELLO). Call once before the run.
  void start();

  /// Originates a brand-new broadcast from this host (a "broadcast request"
  /// of the workload). Returns its identity.
  net::BroadcastId originateBroadcast();

  mobility::MobilityModel& mobility() { return *mobility_; }
  net::NeighborTable& table() { return table_; }
  mac::DcfMac& mac() { return *mac_; }
  const net::HelloAgent& helloAgent() const { return *hello_; }

  /// Protocol phase of this host for `bid` (for tests/inspection): kJitter
  /// or kQueued from the in-flight map, kSent, kInhibited or kSource from the
  /// terminal record, kUnseen when neither holds it.
  enum class PacketPhase { kUnseen, kJitter, kQueued, kSent, kInhibited, kSource };
  PacketPhase phaseOf(net::BroadcastId bid) const;
  /// Broadcasts this host holds in-flight state for (kJitter or kQueued).
  std::size_t liveBroadcasts() const { return states_.size(); }

  // --- mac::DcfMac::Upper ---
  void onTxStarted(mac::DcfMac::TxId id, const net::Packet& packet) override;
  void onTxFinished(mac::DcfMac::TxId id, const net::Packet& packet) override;
  void onReceive(const phy::Frame& frame) override;
  void onCorruptedFrame(const phy::Frame& frame,
                        phy::DropReason reason) override;

  // --- core::HostView ---
  net::HostId id() const override { return id_; }
  int neighborCount() const override;
  std::vector<net::HostId> neighborIds() const override;
  const std::vector<net::HostId>* neighborsOf(
      net::HostId h) const override;
  geom::Vec2 position() const override;
  double radius() const override;
  sim::Rng& rng() override { return schemeRng_; }
  sim::TimePoint now() const override;

 private:
  friend struct manet::ckpt::StateAccess;
  /// A broadcast this host heard and may still relay: kJitter or kQueued,
  /// the two phases a duplicate can still change. The entry is erased when
  /// the broadcast turns terminal (sent or inhibited); the terminal record
  /// keeps that phase, so memory follows the broadcasts in flight. A source
  /// never has an entry: its MAC holds the packet by value.
  struct BroadcastState {
    PacketPhase phase = PacketPhase::kUnseen;
    std::unique_ptr<core::PacketDecider> decider;
    sim::Scheduler::Handle jitterTimer;
    mac::DcfMac::TxId txId = mac::DcfMac::kInvalidTx;
    net::Packet packet;  // what we would rebroadcast
  };
  using StateMap =
      std::unordered_map<net::BroadcastId, BroadcastState, net::BroadcastIdHash>;

  /// Terminal phases (kSent, kInhibited, kSource), 2 bits per broadcast,
  /// indexed by the broadcast's position in MetricsCollector::broadcasts().
  /// Code 0 means "not terminal".
  class TerminalRecord {
   public:
    PacketPhase get(std::size_t index) const;
    /// Each broadcast turns terminal at most once per host.
    void set(std::size_t index, PacketPhase phase);
    std::size_t size() const { return bytes_.size() * kPerByte; }

   private:
    static constexpr std::size_t kPerByte = 4;
    std::vector<std::uint8_t> bytes_;
  };

  void handleData(const phy::Frame& frame);
  void handleFirstReception(const net::Packet& packet,
                            const core::Reception& rx);
  void handleDuplicate(StateMap::iterator it, const core::Reception& rx);
  void submitToMac(net::BroadcastId bid);
  /// S5 for a broadcast with no in-flight state left: records kInhibited and
  /// finalizes it.
  void inhibit(net::BroadcastId bid);
  /// The terminal phase of `bid`, or kUnseen.
  PacketPhase terminalPhase(net::BroadcastId bid) const;
  void recordTerminal(net::BroadcastId bid, PacketPhase phase);
  void emitTrace(trace::EventKind kind, net::BroadcastId bid,
                 net::HostId from = net::kInvalidHost,
                 phy::DropReason drop = phy::DropReason::kNone);

  World& world_;
  net::HostId id_;
  std::unique_ptr<mobility::MobilityModel> mobility_;
  sim::Rng schemeRng_;
  sim::Rng jitterRng_;
  // mutable: table queries purge expired entries lazily, which is not
  // observable state from the HostView's point of view.
  mutable net::NeighborTable table_;
  // Oracle-mode neighborsOf result, reused across queries.
  mutable std::vector<net::HostId> oracleNeighbors_;
  std::unique_ptr<mac::DcfMac> mac_;
  std::unique_ptr<net::HelloAgent> hello_;
  net::BroadcastSeq nextSeq_{};
  StateMap states_;  // in flight only
  TerminalRecord terminal_;
};

}  // namespace manet::experiment
