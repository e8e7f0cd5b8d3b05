// Host-level tests of the S1-S5 skeleton on controlled (fixed-position,
// stationary) topologies.
#include "experiment/host.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "experiment/world.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "sim/time.hpp"

namespace manet::experiment {
namespace {

using sim::kSecond;

constexpr net::BroadcastId B(std::uint32_t origin, std::uint32_t seq) {
  return net::BroadcastId{net::HostId{origin}, net::BroadcastSeq{seq}};
}

ScenarioConfig staticConfig(std::vector<geom::Vec2> positions,
                            SchemeSpec scheme) {
  ScenarioConfig c;
  c.fixedPositions = std::move(positions);
  c.scheme = std::move(scheme);
  c.mapUnits = 11;  // irrelevant with fixed positions, but keep them inside
  c.numBroadcasts = 0;
  c.seed = 5;
  return c;
}

TEST(Host, SourcePhaseAfterOriginate) {
  World w(staticConfig({{0, 0}, {400, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  EXPECT_EQ(w.host(net::HostId{0}).phaseOf(B(0, 0)), Host::PacketPhase::kSource);
  EXPECT_EQ(w.host(net::HostId{1}).phaseOf(B(0, 0)), Host::PacketPhase::kUnseen);
  // Terminal at once: the source keeps no in-flight state.
  EXPECT_EQ(w.host(net::HostId{0}).liveBroadcasts(), 0u);
}

TEST(Host, FloodingReceiverRelaysExactlyOnce) {
  World w(staticConfig({{0, 0}, {400, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  EXPECT_EQ(w.host(net::HostId{1}).phaseOf(B(0, 0)), Host::PacketPhase::kSent);
  EXPECT_EQ(w.host(net::HostId{1}).liveBroadcasts(), 0u);  // sent: erased
  // 2 data frames total: source + one relay (host 0 ignores the echo).
  EXPECT_EQ(w.channel().framesTransmitted(), 2u);
}

TEST(Host, ReceptionAndRebroadcastRecorded) {
  World w(staticConfig({{0, 0}, {400, 0}, {800, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  const auto& pb = w.metrics().broadcasts().at(0);
  EXPECT_EQ(pb.reachable, 2);
  EXPECT_EQ(pb.received, 2);
  EXPECT_EQ(pb.rebroadcast, 2);
  EXPECT_GT(pb.latencySeconds(), 0.0);
}

TEST(Host, CounterSchemeInhibitsCrowdedRelay) {
  // A clique: everyone hears everyone. With C=2 the first relay's frame is
  // the second hearing for all others, inhibiting them.
  std::vector<geom::Vec2> clique{{0, 0}, {100, 0}, {0, 100}, {100, 100},
                                 {50, 50}};
  World w(staticConfig(clique, SchemeSpec::counter(2)));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  const auto& pb = w.metrics().broadcasts().at(0);
  EXPECT_EQ(pb.received, 4);
  // Everyone heard the source; at least one relays, and the relays are few.
  EXPECT_GE(pb.rebroadcast, 1);
  EXPECT_LE(pb.rebroadcast, 2);
  // Hosts that did not relay ended Inhibited.
  int inhibited = 0;
  for (std::uint32_t h = 1; h <= 4; ++h) {
    const auto phase = w.host(net::HostId{h}).phaseOf(B(0, 0));
    EXPECT_TRUE(phase == Host::PacketPhase::kSent ||
                phase == Host::PacketPhase::kInhibited);
    inhibited += phase == Host::PacketPhase::kInhibited ? 1 : 0;
  }
  EXPECT_EQ(inhibited, 4 - pb.rebroadcast);
}

TEST(Host, IsolatedSourceFinishesCleanly) {
  World w(staticConfig({{0, 0}, {5000, 5000}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  const auto& pb = w.metrics().broadcasts().at(0);
  EXPECT_EQ(pb.reachable, 0);
  EXPECT_EQ(pb.received, 0);
  EXPECT_DOUBLE_EQ(pb.reachability(), 1.0);
}

TEST(Host, SourceIgnoresEchoesOfItsOwnBroadcast) {
  World w(staticConfig({{0, 0}, {400, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  EXPECT_EQ(w.host(net::HostId{0}).phaseOf(B(0, 0)), Host::PacketPhase::kSource);
  EXPECT_EQ(w.metrics().broadcasts().at(0).received, 1);  // only host 1
}

TEST(Host, LocationSchemeInhibitsImmediatelyOnZeroCoverage) {
  // Receiver colocated with the source: additional coverage ~ 0 < A.
  World w(staticConfig({{0, 0}, {0, 0}, {5000, 5000}},
                       SchemeSpec::location(0.05)));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  EXPECT_EQ(w.host(net::HostId{1}).phaseOf(B(0, 0)), Host::PacketPhase::kInhibited);
  EXPECT_EQ(w.metrics().broadcasts().at(0).rebroadcast, 0);
}

TEST(Host, TwoBroadcastsTrackedIndependently) {
  World w(staticConfig({{0, 0}, {400, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  w.host(net::HostId{1}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 2 * kSecond);
  ASSERT_EQ(w.metrics().broadcasts().size(), 2u);
  EXPECT_EQ(w.metrics().broadcasts()[0].received, 1);
  EXPECT_EQ(w.metrics().broadcasts()[1].received, 1);
  EXPECT_EQ(w.host(net::HostId{0}).phaseOf(B(1, 0)), Host::PacketPhase::kSent);
  EXPECT_EQ(w.host(net::HostId{1}).phaseOf(B(0, 0)), Host::PacketPhase::kSent);
}

TEST(Host, SequenceNumbersDistinguishBroadcastsFromSameSource) {
  World w(staticConfig({{0, 0}, {400, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 2 * kSecond);
  EXPECT_EQ(w.host(net::HostId{1}).phaseOf(B(0, 0)), Host::PacketPhase::kSent);
  EXPECT_EQ(w.host(net::HostId{1}).phaseOf(B(0, 1)), Host::PacketPhase::kSent);
  EXPECT_EQ(w.metrics().broadcasts().size(), 2u);
}

TEST(Host, OracleNeighborQueries) {
  World w(staticConfig({{0, 0}, {400, 0}, {5000, 5000}},
                       SchemeSpec::adaptiveCounter()));
  EXPECT_EQ(w.host(net::HostId{0}).neighborCount(), 1);
  EXPECT_EQ(w.host(net::HostId{0}).neighborIds(), (std::vector<net::HostId>{net::HostId{1}}));
  EXPECT_EQ(w.host(net::HostId{2}).neighborCount(), 0);
  // Oracle two-hop: neighbors of host 1 as seen from host 0.
  const auto* n1 = w.host(net::HostId{0}).neighborsOf(net::HostId{1});
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(*n1, (std::vector<net::HostId>{net::HostId{0}}));
}

TEST(Host, HelloTablesPopulateUnderHelloSource) {
  ScenarioConfig c = staticConfig({{0, 0}, {400, 0}},
                                  SchemeSpec::neighborCoverage());
  c.neighborSource = NeighborSource::kHello;
  c.hello.enabled = true;
  World w(c);
  w.startAgents();
  w.scheduler().runUntil(sim::kTimeZero + 5 * kSecond);
  EXPECT_EQ(w.host(net::HostId{0}).neighborCount(), 1);
  EXPECT_EQ(w.host(net::HostId{1}).neighborCount(), 1);
  const auto* twoHop = w.host(net::HostId{0}).neighborsOf(net::HostId{1});
  ASSERT_NE(twoHop, nullptr);
  EXPECT_EQ(*twoHop, (std::vector<net::HostId>{net::HostId{0}}));
}

TEST(Host, HelloReceiversShareTheSendersList) {
  // Hosts 1 and 2 both hear host 0 but not each other.
  ScenarioConfig c = staticConfig({{0, 0}, {400, 0}, {-400, 0}},
                                  SchemeSpec::neighborCoverage());
  c.neighborSource = NeighborSource::kHello;
  c.hello.enabled = true;
  World w(c);
  w.startAgents();
  w.scheduler().runUntil(sim::kTimeZero + 5 * kSecond);
  const auto* at1 = w.host(net::HostId{1}).neighborsOf(net::HostId{0});
  const auto* at2 = w.host(net::HostId{2}).neighborsOf(net::HostId{0});
  ASSERT_NE(at1, nullptr);
  EXPECT_EQ(*at1, (std::vector<net::HostId>{net::HostId{1}, net::HostId{2}}));
  // One HELLO, one list object, held by every receiver.
  EXPECT_EQ(at1, at2);
}

TEST(Host, NeighborCoverageLeafDoesNotRelay) {
  // Chain 0 - 1 - 2 with full hello knowledge: when 2 receives from 1, its
  // only neighbor (1) is the sender: T empty, inhibited. Host 1 must relay
  // (it knows 2 is uncovered by 0's transmission).
  ScenarioConfig c = staticConfig({{0, 0}, {400, 0}, {800, 0}},
                                  SchemeSpec::neighborCoverage());
  c.neighborSource = NeighborSource::kHello;
  c.hello.enabled = true;
  World w(c);
  w.startAgents();
  w.scheduler().runUntil(sim::kTimeZero + 5 * kSecond);  // let tables converge
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 6 * kSecond);
  EXPECT_EQ(w.host(net::HostId{1}).phaseOf(B(0, 0)), Host::PacketPhase::kSent);
  EXPECT_EQ(w.host(net::HostId{2}).phaseOf(B(0, 0)), Host::PacketPhase::kInhibited);
  const auto& pb = w.metrics().broadcasts().at(0);
  EXPECT_EQ(pb.received, 2);
  EXPECT_EQ(pb.rebroadcast, 1);
}

// A crash is a cold reboot (DESIGN.md §8): the terminal record goes with the
// in-flight map, so a copy heard after recovery is a first reception again.
// The collector's per-host delivery bits keep it out of r a second time.
TEST(Host, CrashForgetsTerminalPhases) {
  World w(staticConfig({{0, 0}, {400, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  Host& relay = w.host(net::HostId{1});
  ASSERT_EQ(relay.phaseOf(B(0, 0)), Host::PacketPhase::kSent);
  const auto& pb = w.metrics().broadcasts().at(0);
  ASSERT_EQ(pb.received, 1);
  ASSERT_EQ(pb.rebroadcast, 1);

  w.setHostUp(net::HostId{1}, false);
  w.setHostUp(net::HostId{1}, true);
  EXPECT_EQ(relay.phaseOf(B(0, 0)), Host::PacketPhase::kUnseen);
  EXPECT_EQ(relay.liveBroadcasts(), 0u);

  phy::Frame copy;
  copy.src = net::HostId{0};
  copy.packet = net::makeDataPacket(B(0, 0), net::HostId{0});
  relay.onReceive(copy);
  EXPECT_EQ(relay.phaseOf(B(0, 0)), Host::PacketPhase::kJitter);
  EXPECT_EQ(relay.liveBroadcasts(), 1u);
  w.scheduler().runUntil(sim::kTimeZero + 2 * kSecond);
  EXPECT_EQ(relay.phaseOf(B(0, 0)), Host::PacketPhase::kSent);
  EXPECT_EQ(pb.received, 1);
  EXPECT_EQ(pb.rebroadcast, 2);
}

// Per-broadcast host memory follows the broadcasts in flight, not the run
// length: on a dense 1x1 flood the largest number of live host states over
// a run of 4N broadcasts matches that of N broadcasts up to one full set of
// relays per broadcast in flight, and nothing is left once the run drains.
TEST(Host, LiveStatesFollowBroadcastsInFlight) {
  struct Peak {
    std::size_t live = 0;      // live host states, summed over hosts
    std::size_t inFlight = 0;  // broadcasts some host holds live state for
  };
  const auto runDense = [](int broadcasts) {
    ScenarioConfig c;
    c.mapUnits = 1;
    c.numHosts = 100;
    c.scheme = SchemeSpec::flooding();
    c.numBroadcasts = broadcasts;
    c.seed = 42;
    World w(c);
    w.beginRun();
    Peak peak;
    for (sim::TimePoint t = sim::kTimeZero; t < w.horizonTime();
         t += 20 * sim::kMillisecond) {
      w.continueUntil(t);
      std::size_t live = 0;
      for (std::uint32_t h = 0; h < w.hostCount(); ++h) {
        live += w.host(net::HostId{h}).liveBroadcasts();
      }
      std::size_t inFlight = 0;
      for (const auto& pb : w.metrics().broadcasts()) {
        for (std::uint32_t h = 0; h < w.hostCount(); ++h) {
          const auto phase = w.host(net::HostId{h}).phaseOf(pb.bid);
          if (phase == Host::PacketPhase::kJitter ||
              phase == Host::PacketPhase::kQueued) {
            ++inFlight;
            break;
          }
        }
      }
      // Each broadcast in flight holds at most one state per non-source host.
      EXPECT_LE(live, inFlight * (w.hostCount() - 1)) << "at " << sim::toSeconds(t);
      peak.live = std::max(peak.live, live);
      peak.inFlight = std::max(peak.inFlight, inFlight);
    }
    w.runToEnd();
    for (std::uint32_t h = 0; h < w.hostCount(); ++h) {
      EXPECT_EQ(w.host(net::HostId{h}).liveBroadcasts(), 0u) << "host " << h;
    }
    EXPECT_EQ(w.metrics().broadcasts().size(),
              static_cast<std::size_t>(broadcasts));
    return peak;
  };
  constexpr int kN = 10;
  const Peak small = runDense(kN);
  const Peak large = runDense(4 * kN);
  ASSERT_GT(small.live, 0u);  // the sampling saw broadcasts in flight
  const std::size_t slack =
      std::max(small.inFlight, large.inFlight) * (100 - 1);
  EXPECT_LE(large.live, small.live + slack);
  EXPECT_LE(small.live, large.live + slack);
  // Far below one state per host per broadcast of the run.
  EXPECT_LT(large.live, static_cast<std::size_t>(4 * kN) * 99 / 4);
}

TEST(Host, JitterDelaysMacSubmission) {
  // With flooding on a 2-host link the relay's tx start must lag the
  // reception by 0..31 slots plus MAC access time.
  World w(staticConfig({{0, 0}, {400, 0}}, SchemeSpec::flooding()));
  w.host(net::HostId{0}).originateBroadcast();
  w.scheduler().runUntil(sim::kTimeZero + 1 * kSecond);
  const auto& pb = w.metrics().broadcasts().at(0);
  // Source tx: DIFS (50) + airtime (2432) = reception at 2482. Relay ends
  // by 2482 + jitter(<=620) + DIFS + airtime.
  EXPECT_GT(pb.latencySeconds(), 0.0049);  // at least two airtimes
  EXPECT_LT(pb.latencySeconds(), 0.0061);
}

}  // namespace
}  // namespace manet::experiment
