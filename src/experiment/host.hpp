// One mobile host: mobility + MAC + HELLO agent + per-broadcast protocol
// state machine. Owns the S1-S5 skeleton every scheme shares (see
// core/policy.hpp); the scheme itself is a PacketDecider.
#pragma once

#include <memory>
#include <unordered_map>

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

  /// Host churn (DESIGN.md §8). A crash is a cold reboot: every queued frame
  /// and timer is dropped, the MAC resets, and the neighbor table plus all
  /// per-broadcast memory is forgotten — a recovered host treats copies it
  /// saw before the crash as brand-new receptions. Recovery restarts the
  /// HELLO agent. The world flips the channel's node state; these hooks only
  /// manage host-local state.
  void onCrash();
  void onRecover();
  bool up() const { return up_; }

  /// Originates a brand-new broadcast from this host (a "broadcast request"
  /// of the workload). Returns its identity.
  net::BroadcastId originateBroadcast();

  mobility::MobilityModel& mobility() { return *mobility_; }
  net::NeighborTable& table() { return table_; }
  mac::DcfMac& mac() { return *mac_; }
  const net::HelloAgent& helloAgent() const { return *hello_; }

  /// Terminal protocol state of this host for `bid` (for tests/inspection).
  enum class PacketPhase { kUnseen, kJitter, kQueued, kSent, kInhibited, kSource };
  PacketPhase phaseOf(net::BroadcastId bid) const;

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
  struct BroadcastState {
    PacketPhase phase = PacketPhase::kUnseen;
    std::unique_ptr<core::PacketDecider> decider;
    sim::Scheduler::Handle jitterTimer;
    mac::DcfMac::TxId txId = mac::DcfMac::kInvalidTx;
    net::Packet packet;  // what we would rebroadcast
  };

  void handleData(const phy::Frame& frame);
  void handleFirstReception(const net::Packet& packet,
                            const core::Reception& rx);
  void handleDuplicate(BroadcastState& state, net::BroadcastId bid,
                       const core::Reception& rx);
  void submitToMac(net::BroadcastId bid);
  void inhibit(BroadcastState& state, net::BroadcastId bid);
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
  net::BroadcastSeq nextSeq_{};  // survives crashes: bids stay unique
  bool up_ = true;
  std::unordered_map<net::BroadcastId, BroadcastState, net::BroadcastIdHash>
      states_;
};

}  // namespace manet::experiment
