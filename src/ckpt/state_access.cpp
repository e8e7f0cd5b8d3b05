#include "ckpt/state_access.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/digest.hpp"
#include "experiment/host.hpp"
#include "experiment/world.hpp"
#include "mac/dcf.hpp"
#include "mobility/random_roam.hpp"
#include "net/hello.hpp"
#include "net/neighbor_table.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/metrics.hpp"

namespace manet::ckpt {
namespace {

void addVec2(Digest& d, geom::Vec2 v) {
  d.add(v.x);
  d.add(v.y);
}

/// Full content fingerprint of one packet (a HELLO's neighbour list is
/// hashed by content, not by which shared list it points at).
std::uint64_t packetDigest(const net::Packet& p) {
  Digest d;
  d.add(static_cast<std::uint32_t>(p.type));
  d.add(p.sender.value());
  d.add(static_cast<std::uint32_t>(p.hopCount));
  d.add(p.bid.origin.value());
  d.add(p.bid.seq.value());
  // A HELLO without a list hashes as an empty one.
  const auto& hello = p.helloNeighbors;
  d.add(static_cast<std::uint64_t>(hello != nullptr ? hello->size() : 0));
  if (hello != nullptr) {
    for (net::HostId id : *hello) d.add(id.value());
  }
  d.add(p.helloInterval);
  return d.value();
}

/// Folds a collected (key, word) list in key order: the collect-then-sort
/// step that keeps a digest independent of hash iteration order.
void addSorted(Digest& d,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>& items) {
  std::sort(items.begin(), items.end());
  d.add(static_cast<std::uint64_t>(items.size()));
  for (const auto& [key, word] : items) {
    d.add(key);
    d.add(word);
  }
}

}  // namespace

// --- Rng ---------------------------------------------------------------

void StateAccess::addRng(Digest& d, const sim::Rng& rng) {
  for (std::uint64_t word : rng.s_) d.add(word);
}

// --- scheduler ---------------------------------------------------------

std::uint64_t StateAccess::schedulerDigest(const sim::Scheduler& scheduler) {
  Digest d;
  d.add(scheduler.now_);
  d.add(scheduler.nextSeq_);
  d.add(static_cast<std::uint64_t>(scheduler.live_));
  d.add(static_cast<std::uint32_t>(scheduler.slotCount_));
  // (at, seq) is the queues' total order; the closures are not comparable.
  // Heap and lane residents fold into one sorted set, so the digest does
  // not depend on which queue holds an event; dead lane entries are skipped.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pending;
  pending.reserve(scheduler.live_);
  for (const auto& entry : scheduler.heap_) {
    pending.emplace_back(static_cast<std::uint64_t>(entry.at.ticks()),
                         entry.seq);
  }
  for (const auto& lane : scheduler.lanes_) {
    for (std::size_t i = 0; i < lane.size; ++i) {
      const auto& entry = lane.entry(i);
      if (scheduler.node(entry.slot).gen != entry.gen) continue;
      pending.emplace_back(static_cast<std::uint64_t>(entry.at.ticks()),
                           entry.seq);
    }
  }
  addSorted(d, pending);
  return d.value();
}

// --- neighbor table ----------------------------------------------------

std::uint64_t StateAccess::neighborTableDigest(
    const net::NeighborTable& table) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(table.entries_.size());
  for (const auto& [id, entry] : table.entries_) {
    Digest e;
    e.add(entry.lastHeard);
    e.add(entry.interval);
    // A null advertised list hashes as an empty one.
    const auto& list = entry.neighbors;
    e.add(static_cast<std::uint64_t>(list != nullptr ? list->size() : 0));
    if (list != nullptr) {
      for (net::HostId n : *list) e.add(n.value());
    }
    entries.emplace_back(id.value(), e.value());
  }
  Digest d;
  addSorted(d, entries);
  d.add(static_cast<std::uint64_t>(table.changes_.size()));
  for (sim::TimePoint t : table.changes_) d.add(t);
  return d.value();
}

// --- MAC ---------------------------------------------------------------

std::uint64_t StateAccess::macDigest(const mac::DcfMac& mac) {
  Digest d;
  d.add(static_cast<std::uint64_t>(mac.queue_.size()));
  for (const auto& p : mac.queue_) {
    d.add(p.id);
    d.add(packetDigest(p.packet));
    d.add(static_cast<std::uint64_t>(p.bytes));
  }
  d.add(mac.nextTxId_);
  d.add(mac.transmitting_);
  d.add(mac.onAirId_);
  d.add(packetDigest(mac.onAirPacket_));
  d.add(mac.mediumBusy_);
  d.add(mac.idleSince_);
  d.add(static_cast<std::int32_t>(mac.backoffRemaining_));
  d.add(mac.timer_.pending());
  d.add(mac.framesSent_);
  d.add(mac.framesDroppedCorrupt_);
  addRng(d, mac.rng_);
  return d.value();
}

// --- HELLO -------------------------------------------------------------

std::uint64_t StateAccess::helloDigest(const net::HelloAgent& hello) {
  Digest d;
  d.add(hello.currentInterval_);
  d.add(hello.timer_.pending());
  d.add(hello.hellosSent_);
  addRng(d, hello.rng_);
  return d.value();
}

// --- mobility ----------------------------------------------------------

std::uint64_t StateAccess::mobilityDigest(
    const mobility::MobilityModel& model,
    std::span<const sim::TimePoint> pending) {
  Digest d;
  if (const auto* s = dynamic_cast<const mobility::Stationary*>(&model)) {
    d.add(std::uint32_t{1});
    addVec2(d, s->position_);
  } else if (const auto* live =
                 dynamic_cast<const mobility::RandomRoam*>(&model)) {
    mobility::RandomRoam copy = *live;
    if (!pending.empty()) copy.replay(pending);
    const mobility::RandomRoam* roam = &copy;
    d.add(std::uint32_t{2});
    addRng(d, roam->rng_);
    addVec2(d, roam->position_);
    addVec2(d, roam->velocity_);
    d.add(roam->turnEnd_);
    d.add(roam->lastQuery_);
  } else {
    d.add(std::uint32_t{0});  // unknown model: capture presence only
  }
  return d.value();
}

// --- channel -----------------------------------------------------------

std::uint64_t StateAccess::channelDigest(const phy::Channel& channel) {
  Digest d;
  d.add(channel.framesTransmitted_);
  d.add(channel.framesDelivered_);
  d.add(channel.framesCorrupted_);
  d.add(static_cast<std::uint64_t>(channel.nodes_.size()));
  for (const auto& n : channel.nodes_) {
    d.add(n.attached);
    d.add(n.transmitting);
    d.add(static_cast<std::int32_t>(n.busyCount));
    // In-flight frames, including their drop verdicts.
    d.add(static_cast<std::uint64_t>(n.activeRx.size()));
    for (const auto ref : n.activeRx) {
      const phy::Frame& frame = channel.airFrames_[ref.frame].frame;
      const auto& rec = channel.entry(ref);
      d.add(frame.src.value());
      addVec2(d, frame.srcPos);
      d.add(static_cast<std::uint64_t>(frame.bytes));
      d.add(packetDigest(frame.packet));
      d.add(frame.txStart);
      d.add(frame.txEnd);
      d.add(static_cast<std::uint32_t>(rec.reason));
    }
  }
  return d.value();
}

// --- metrics -----------------------------------------------------------

std::uint64_t StateAccess::metricsDigest(
    const stats::MetricsCollector& collector, const obs::Registry* registry) {
  Digest d;
  d.add(static_cast<std::uint64_t>(collector.numHosts_));
  d.add(static_cast<std::uint64_t>(collector.order_.size()));
  for (const stats::PerBroadcast& pb : collector.order_) {
    d.add(pb.bid.origin.value());
    d.add(pb.bid.seq.value());
    d.add(pb.start);
    d.add(static_cast<std::int32_t>(pb.reachable));
    d.add(static_cast<std::int32_t>(pb.received));
    d.add(static_cast<std::int32_t>(pb.rebroadcast));
    d.add(pb.lastFinal);
    d.add(static_cast<std::int64_t>(pb.hopSum));
    d.add(static_cast<std::int32_t>(pb.maxHops));
  }
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
    live.reserve(collector.live_.size());
    for (const auto& [bid, index] : collector.live_) {
      live.emplace_back((static_cast<std::uint64_t>(bid.origin.value()) << 32) |
                            bid.seq.value(),
                        static_cast<std::uint64_t>(index));
    }
    addSorted(d, live);
  }
  d.add(collector.hellosSent_);
  d.add(collector.dataFramesSent_);

  // Registry content, in enum order: adding a counter changes the word, not
  // the blob layout.
  d.add(registry != nullptr);
  if (registry != nullptr) {
    const auto counters = static_cast<std::size_t>(obs::Counter::kCount);
    for (std::size_t i = 0; i < counters; ++i) {
      d.add(registry->counter(static_cast<obs::Counter>(i)));
    }
    const auto gauges = static_cast<std::size_t>(obs::Gauge::kCount);
    for (std::size_t i = 0; i < gauges; ++i) {
      d.add(registry->gauge(static_cast<obs::Gauge>(i)));
    }
    const auto hists = static_cast<std::size_t>(obs::Hist::kCount);
    for (std::size_t i = 0; i < hists; ++i) {
      const stats::Histogram& h =
          registry->histogram(static_cast<obs::Hist>(i));
      d.add(h.count());
      d.add(h.sum());
      d.add(h.min());
      d.add(h.max());
      for (std::size_t b = 0; b < stats::Histogram::kBuckets; ++b) {
        d.add(h.bucketCount(b));
      }
    }
  }
  return d.value();
}

// --- host --------------------------------------------------------------

HostFingerprint StateAccess::host(const experiment::Host& host) {
  const auto rngWord = [](const sim::Rng& rng) {
    Digest d;
    addRng(d, rng);
    return d.value();
  };
  HostFingerprint fp;
  auto& w = fp.words;
  {
    Digest d;
    d.add(host.id_.value());
    d.add(host.nextSeq_.value());
    w[HostFingerprint::kState] = d.value();
  }
  w[HostFingerprint::kSchemeRng] = rngWord(host.schemeRng_);
  w[HostFingerprint::kJitterRng] = rngWord(host.jitterRng_);
  w[HostFingerprint::kMac] = macDigest(*host.mac_);
  w[HostFingerprint::kHello] = helloDigest(*host.hello_);
  w[HostFingerprint::kMobility] = mobilityDigest(
      *host.mobility_, host.world_.positions_.pending(host.id_));
  w[HostFingerprint::kNeighborTable] = neighborTableDigest(host.table_);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> states;
  states.reserve(host.states_.size());
  for (const auto& [bid, state] : host.states_) {
    Digest b;
    b.add(static_cast<std::uint32_t>(state.phase));
    b.add(state.jitterTimer.pending());
    b.add(state.txId);
    b.add(state.decider != nullptr);
    b.add(state.decider ? state.decider->stateDigest() : std::uint64_t{0});
    b.add(packetDigest(state.packet));
    states.emplace_back(
        (static_cast<std::uint64_t>(bid.origin.value()) << 32) |
            bid.seq.value(),
        b.value());
  }
  Digest d;
  addSorted(d, states);
  // The terminal record, as (broadcast position, phase) pairs: a broadcast
  // that turns terminal leaves the map but still changes the word.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> terminal;
  for (std::size_t i = 0; i < host.terminal_.size(); ++i) {
    const auto phase = host.terminal_.get(i);
    if (phase == experiment::Host::PacketPhase::kUnseen) continue;
    terminal.emplace_back(i, static_cast<std::uint64_t>(phase));
  }
  addSorted(d, terminal);
  w[HostFingerprint::kBroadcastStates] = d.value();
  return fp;
}

// --- world -------------------------------------------------------------

WorldFingerprint StateAccess::captureWorld(const experiment::World& world) {
  WorldFingerprint fp;
  auto& w = fp.words;
  w[WorldFingerprint::kScheduler] = schedulerDigest(world.scheduler_);
  w[WorldFingerprint::kChannel] = channelDigest(world.channel_);
  {
    // Workload stream and the request schedule drawn from it.
    Digest d;
    addRng(d, world.workloadRng_);
    d.add(static_cast<std::uint64_t>(world.workloadSchedule_.size()));
    for (const experiment::WorkloadRequest& q : world.workloadSchedule_) {
      d.add(q.at);
      d.add(q.source.value());
      d.add(q.seq);
    }
    w[WorldFingerprint::kTraffic] = d.value();
  }
  w[WorldFingerprint::kMetrics] = metricsDigest(world.metrics_, obs::current());
  fp.hosts.reserve(world.hosts_.size());
  for (const auto& h : world.hosts_) fp.hosts.push_back(host(*h));
  return fp;
}

}  // namespace manet::ckpt
