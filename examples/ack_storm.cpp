// The "many-to-one" ACK storm (paper §2.1).
//
// The paper justifies unreliable broadcast with: "if all receiving hosts
// send acknowledgments to the sending host, these acknowledgments are very
// likely to collide with each other at the sender's side, making another
// 'many-to-one' broadcast storm." This example makes that argument
// measurable on the same broadcast DCF the schemes use: one host broadcasts
// a 280-byte packet to n receivers placed uniformly in its disk, and each
// receiver answers with a 32-byte confirmation after the schemes' own
// U(0, 31)-slot jitter. Nothing retransmits, so every confirmation that
// collides at the source is lost. We count how many arrive, averaged over a
// fixed set of placements per n.
//
//   ./build/examples/ack_storm [maxReceivers]
#include <climits>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "geom/circle.hpp"
#include "mac/dcf.hpp"
#include "net/packet.hpp"
#include "parse_int.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "util/table.hpp"

using namespace manet;

namespace {

constexpr net::HostId kSource{0};
constexpr std::size_t kConfirmationBytes = 32;
constexpr int kJitterSlots = 31;  // ScenarioConfig::jitterSlots
constexpr int kPlacements = 40;

/// A receiver that answers the source's broadcast with one confirmation,
/// after a random jitter, as a plain (unacknowledged) broadcast frame.
class ConfirmingHost : public mac::DcfMac::Upper {
 public:
  ConfirmingHost(sim::Scheduler& scheduler, phy::Channel& channel,
                 net::HostId id, geom::Vec2 pos, sim::Rng rng)
      : scheduler_(scheduler),
        mac_(scheduler, channel, id, [pos] { return pos; }, rng.fork(0),
             mac::MacParams{}, this),
        jitterRng_(rng.fork(1)) {}

  void onTxStarted(mac::DcfMac::TxId, const net::Packet&) override {}
  void onTxFinished(mac::DcfMac::TxId, const net::Packet&) override {}
  void onReceive(const phy::Frame& frame) override {
    if (frame.packet.sender != kSource) return;
    const sim::Duration jitter =
        jitterRng_.uniformInt(0, kJitterSlots) * mac::MacParams{}.slot;
    // Capture the 8-byte id, not the 48-byte packet, so the callback stays
    // in the event node's inline buffer.
    auto confirmCb = [this, bid = frame.packet.bid] {
      mac_.enqueue(net::makeDataPacket(bid, mac_.self()), kConfirmationBytes);
    };
    static_assert(sim::InlineFn::storesInline<decltype(confirmCb)>(),
                  "confirmation capture must fit the event node");
    scheduler_.scheduleAfter(jitter, std::move(confirmCb));
  }

 private:
  sim::Scheduler& scheduler_;
  mac::DcfMac mac_;
  sim::Rng jitterRng_;
};

/// The source counts the confirmations that make it back intact, and every
/// frame that reaches it corrupted.
class SourceHost : public mac::DcfMac::Upper {
 public:
  SourceHost(sim::Scheduler& scheduler, phy::Channel& channel)
      : mac_(scheduler, channel, kSource, [] { return geom::Vec2{0, 0}; },
             sim::Rng(99), mac::MacParams{}, this) {}

  void onTxStarted(mac::DcfMac::TxId, const net::Packet&) override {}
  void onTxFinished(mac::DcfMac::TxId, const net::Packet&) override {}
  void onReceive(const phy::Frame&) override { ++confirmations_; }
  void onCorruptedFrame(const phy::Frame&, phy::DropReason) override {
    ++corrupted_;
  }

  mac::DcfMac& mac() { return mac_; }
  int confirmations() const { return confirmations_; }
  int corrupted() const { return corrupted_; }

 private:
  mac::DcfMac mac_;
  int confirmations_ = 0;
  int corrupted_ = 0;
};

struct StormResult {
  int confirmed = 0;
  int corrupted = 0;
};

/// One placement: the source broadcasts once and the run drains.
StormResult runStorm(int receivers, int placement) {
  sim::Scheduler scheduler;
  const phy::PhyParams phy;
  phy::Channel channel(scheduler, phy);
  const sim::Rng rng(static_cast<std::uint64_t>(receivers) * 1000 +
                     static_cast<std::uint64_t>(placement));
  sim::Rng placeRng = rng.fork(0);

  SourceHost source(scheduler, channel);
  std::vector<std::unique_ptr<ConfirmingHost>> hosts;
  for (int i = 1; i <= receivers; ++i) {
    // Uniform in the source's disk.
    const double r = phy.radiusMeters * std::sqrt(placeRng.uniform());
    const double angle = placeRng.uniform(0.0, 2.0 * geom::kPi);
    hosts.push_back(std::make_unique<ConfirmingHost>(
        scheduler, channel, net::HostId{static_cast<std::uint32_t>(i)},
        r * geom::unitVector(angle),
        rng.fork(static_cast<std::uint64_t>(i))));
  }

  scheduler.runUntil(sim::TimePoint{10'000});  // long idle: no backoff owed
  source.mac().enqueue(
      net::makeDataPacket({kSource, net::BroadcastSeq{0}}, kSource),
      net::kDataPacketBytes);
  scheduler.runAll();
  return {source.confirmations(), source.corrupted()};
}

}  // namespace

int main(int argc, char** argv) {
  int maxReceivers = 128;
  if (argc > 2 ||
      (argc > 1 && !examples::parseInt(argv[1], 2, INT_MAX, maxReceivers))) {
    std::cerr << "usage: ack_storm [maxReceivers >= 2]\n";
    return 2;
  }

  std::cout
      << "The many-to-one ACK storm (paper, section 2.1): n receivers in the\n"
         "source's disk each confirm one 280-byte broadcast with a 32-byte\n"
         "frame after a U(0, 31)-slot jitter. Nothing is retransmitted; mean\n"
         "over "
      << kPlacements << " placements per n.\n\n";

  util::Table table({"receivers", "confirmed", "lost share",
                     "corrupted at source"});
  // The claim: the share of confirmations lost at the source rises strictly
  // with n.
  bool lossRises = true;
  double prevLost = -1.0;
  for (int n = 2; n <= maxReceivers; n *= 2) {
    long confirmed = 0;
    long corrupted = 0;
    for (int k = 0; k < kPlacements; ++k) {
      const StormResult r = runStorm(n, k);
      confirmed += r.confirmed;
      corrupted += r.corrupted;
    }
    const double sent = static_cast<double>(n) * kPlacements;
    const double lost = 1.0 - static_cast<double>(confirmed) / sent;
    table.addRow({std::to_string(n),
                  util::fmt(static_cast<double>(confirmed) / kPlacements, 1),
                  util::fmt(lost, 2),
                  util::fmt(static_cast<double>(corrupted) / kPlacements, 1)});
    lossRises = lossRises && lost > prevLost;
    prevLost = lost;
  }
  table.print(std::cout);
  std::cout << "\nEvery confirmation contends with every other one at the "
               "same receiver (the\nsource), and receivers out of each "
               "other's range cannot defer: the paper's\nargument for "
               "unreliable broadcast with relay suppression instead of\n"
               "per-receiver acknowledgment.\n";
  if (!lossRises) {
    std::cerr << "ack_storm: the lost share did not rise strictly with n\n";
  }
  return lossRises ? 0 : 1;
}
