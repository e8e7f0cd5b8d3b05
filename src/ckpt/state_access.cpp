#include "ckpt/state_access.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/config_io.hpp"
#include "ckpt/digest.hpp"
#include "core/threshold.hpp"
#include "experiment/host.hpp"
#include "experiment/world.hpp"
#include "fault/loss.hpp"
#include "mac/dcf.hpp"
#include "mobility/group.hpp"
#include "mobility/random_roam.hpp"
#include "mobility/waypoint.hpp"
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

/// Full content fingerprint of one packet (identity is irrelevant: two
/// worlds hold distinct shared_ptrs to equal packets).
std::uint64_t packetDigest(const net::Packet& p) {
  Digest d;
  d.add(static_cast<std::uint32_t>(p.type));
  d.add(p.sender.value());
  d.add(p.dest.value());
  d.add(static_cast<std::uint32_t>(p.macSeq));
  d.add(p.navDuration);
  d.add(static_cast<std::uint32_t>(p.hopCount));
  d.add(p.bid.origin.value());
  d.add(p.bid.seq.value());
  d.add(static_cast<std::uint32_t>(p.appKind));
  d.add(p.appTarget.value());
  d.add(static_cast<std::uint64_t>(p.appPath.size()));
  for (net::HostId id : p.appPath) d.add(id.value());
  // A HELLO without a list hashes as an empty one.
  const auto& hello = p.helloNeighbors;
  d.add(static_cast<std::uint64_t>(hello != nullptr ? hello->size() : 0));
  if (hello != nullptr) {
    for (net::HostId id : *hello) d.add(id.value());
  }
  d.add(p.helloInterval);
  return d.value();
}

void addRng(Digest& d, const sim::Rng& rng) {
  for (std::uint64_t word : StateAccess::rng(rng).s) d.add(word);
}

}  // namespace

// --- Rng ---------------------------------------------------------------

RngImage StateAccess::rng(const sim::Rng& rng) {
  RngImage image;
  for (int i = 0; i < 4; ++i) image.s[static_cast<std::size_t>(i)] = rng.s_[i];
  return image;
}

// --- scheduler ---------------------------------------------------------

SchedulerImage StateAccess::scheduler(const sim::Scheduler& scheduler) {
  SchedulerImage image;
  image.now = scheduler.now_;
  image.nextSeq = scheduler.nextSeq_;
  image.liveCount = scheduler.live_;
  image.slotCount = scheduler.slotCount_;
  image.pending.reserve(scheduler.heap_.size());
  for (const auto& entry : scheduler.heap_) {
    image.pending.push_back(PendingEventImage{entry.at, entry.seq});
  }
  std::sort(image.pending.begin(), image.pending.end(),
            [](const PendingEventImage& a, const PendingEventImage& b) {
              return a.at < b.at || (a.at == b.at && a.seq < b.seq);
            });
  return image;
}

// --- neighbor table ----------------------------------------------------

NeighborTableImage StateAccess::neighborTable(const net::NeighborTable& table) {
  NeighborTableImage image;
  image.entries.reserve(table.entries_.size());
  for (const auto& [id, entry] : table.entries_) {
    NeighborEntryImage e;
    e.id = id.value();
    e.lastHeard = entry.lastHeard;
    e.interval = entry.interval;
    if (entry.neighbors != nullptr) {
      e.neighbors.reserve(entry.neighbors->size());
      for (net::HostId n : *entry.neighbors) e.neighbors.push_back(n.value());
    }
    image.entries.push_back(std::move(e));
  }
  std::sort(image.entries.begin(), image.entries.end(),
            [](const NeighborEntryImage& a, const NeighborEntryImage& b) {
              return a.id < b.id;
            });
  image.changes.assign(table.changes_.begin(), table.changes_.end());
  return image;
}

// --- MAC ---------------------------------------------------------------

std::uint64_t StateAccess::macDigest(const mac::DcfMac& mac) {
  Digest d;
  d.add(static_cast<std::uint64_t>(mac.queue_.size()));
  for (const auto& p : mac.queue_) {
    d.add(p.id);
    d.add(p.packet ? packetDigest(*p.packet) : std::uint64_t{0});
    d.add(static_cast<std::uint64_t>(p.bytes));
    d.add(p.dest.value());
    d.add(static_cast<std::int32_t>(p.retries));
    d.add(static_cast<std::int32_t>(p.cw));
  }
  d.add(mac.nextTxId_);
  d.add(static_cast<std::uint32_t>(mac.nextMacSeq_));
  d.add(mac.transmitting_);
  d.add(static_cast<std::uint32_t>(mac.onAir_));
  d.add(mac.onAirId_);
  d.add(mac.onAirPacket_ ? packetDigest(*mac.onAirPacket_) : std::uint64_t{0});
  d.add(mac.mediumBusy_);
  d.add(mac.idleSince_);
  d.add(static_cast<std::int32_t>(mac.backoffRemaining_));
  d.add(mac.timer_.pending());
  d.add(mac.hasCurrent_);
  if (mac.hasCurrent_) {
    d.add(mac.current_.id);
    d.add(mac.current_.packet ? packetDigest(*mac.current_.packet) : std::uint64_t{0});
    d.add(static_cast<std::uint64_t>(mac.current_.bytes));
    d.add(mac.current_.dest.value());
    d.add(static_cast<std::int32_t>(mac.current_.retries));
    d.add(static_cast<std::int32_t>(mac.current_.cw));
  }
  d.add(static_cast<std::uint32_t>(mac.exchange_));
  d.add(mac.exchangeTimer_.pending());
  d.add(mac.responsePending_);
  d.add(mac.responseTimer_.pending());
  d.add(mac.navUntil_);
  d.add(mac.navTimer_.pending());
  std::vector<std::uint64_t> seen(mac.seenUnicast_.begin(),
                                  mac.seenUnicast_.end());
  std::sort(seen.begin(), seen.end());
  d.add(static_cast<std::uint64_t>(seen.size()));
  for (std::uint64_t key : seen) d.add(key);
  d.add(mac.framesSent_);
  d.add(mac.framesDroppedCorrupt_);
  d.add(mac.unicastRetries_);
  d.add(mac.unicastDrops_);
  d.add(mac.acksSent_);
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

std::uint64_t StateAccess::roamDigest(const mobility::RandomRoam& roam) {
  Digest d;
  addRng(d, roam.rng_);
  addVec2(d, roam.position_);
  addVec2(d, roam.velocity_);
  d.add(roam.turnEnd_);
  d.add(roam.lastQuery_);
  return d.value();
}

std::uint64_t StateAccess::mobilityDigest(
    const mobility::MobilityModel& model) {
  Digest d;
  if (const auto* s = dynamic_cast<const mobility::Stationary*>(&model)) {
    d.add(std::uint32_t{1});
    addVec2(d, s->position_);
  } else if (const auto* roam =
                 dynamic_cast<const mobility::RandomRoam*>(&model)) {
    d.add(std::uint32_t{2});
    d.add(roamDigest(*roam));
  } else if (const auto* wp =
                 dynamic_cast<const mobility::RandomWaypoint*>(&model)) {
    d.add(std::uint32_t{3});
    addRng(d, wp->rng_);
    addVec2(d, wp->from_);
    addVec2(d, wp->to_);
    d.add(wp->legStart_);
    d.add(wp->legEnd_);
    d.add(wp->pauseEnd_);
    d.add(wp->lastQuery_);
  } else if (const auto* m =
                 dynamic_cast<const mobility::GroupMember*>(&model)) {
    d.add(std::uint32_t{4});
    // The center is shared by the team; folding it per member just repeats
    // reads, it never advances anything.
    d.add(roamDigest(m->center_->roam_));
    addVec2(d, m->offset_);
    d.add(roamDigest(m->deviation_));
  } else {
    d.add(std::uint32_t{0});  // unknown model: capture presence only
  }
  return d.value();
}

// --- channel -----------------------------------------------------------

ChannelImage StateAccess::channel(const phy::Channel& channel) {
  ChannelImage image;
  image.framesTransmitted = channel.framesTransmitted_;
  image.framesDelivered = channel.framesDelivered_;
  image.framesCorrupted = channel.framesCorrupted_;
  image.framesLostToFault = channel.framesLostToFault_;
  image.framesDroppedHostDown = channel.framesDroppedHostDown_;
  image.nodes.reserve(channel.nodes_.size());
  for (const auto& n : channel.nodes_) {
    ChannelNodeImage ni;
    ni.attached = n.attached;
    ni.up = n.up;
    ni.transmitting = n.transmitting;
    ni.busyCount = n.busyCount;
    ni.epoch = n.epoch;
    ni.activeRxCount = static_cast<std::uint32_t>(n.activeRx.size());
    Digest d;
    for (const auto ref : n.activeRx) {
      const phy::Frame& frame = channel.airFrames_[ref.frame].frame;
      const auto& rec = channel.entry(ref);
      d.add(frame.src.value());
      addVec2(d, frame.srcPos);
      d.add(static_cast<std::uint64_t>(frame.bytes));
      d.add(frame.packet ? packetDigest(*frame.packet) : std::uint64_t{0});
      d.add(frame.txStart);
      d.add(frame.txEnd);
      d.add(static_cast<std::uint32_t>(rec.reason));
      d.add(rec.orphaned);
    }
    ni.activeRxDigest = d.value();
    image.nodes.push_back(ni);
  }
  return image;
}

// --- fault -------------------------------------------------------------

FaultImage StateAccess::fault(const fault::LossModel* model) {
  FaultImage image;
  if (model == nullptr) return image;
  if (const auto* iid = dynamic_cast<const fault::IidLoss*>(model)) {
    image.lossKind = 1;
    image.lossRng = rng(iid->rng_);
  } else if (const auto* ge =
                 dynamic_cast<const fault::GilbertElliottLoss*>(model)) {
    image.lossKind = 2;
    image.lossRng = rng(ge->rng_);
    image.links.reserve(ge->links_.size());
    for (const auto& [key, link] : ge->links_) {
      image.links.push_back(GeLinkImage{key, link.bad, rng(link.rng)});
    }
    std::sort(image.links.begin(), image.links.end(),
              [](const GeLinkImage& a, const GeLinkImage& b) {
                return a.key < b.key;
              });
  }
  return image;
}

// --- metrics -----------------------------------------------------------

MetricsImage StateAccess::metrics(const stats::MetricsCollector& collector,
                                  const obs::Registry* registry) {
  MetricsImage image;
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
    std::vector<std::pair<std::uint64_t, const stats::MetricsCollector::Record*>>
        live;
    live.reserve(collector.live_.size());
    for (const auto& [bid, rec] : collector.live_) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(bid.origin.value()) << 32) |
          bid.seq.value();
      live.emplace_back(key, &rec);
    }
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    d.add(static_cast<std::uint64_t>(live.size()));
    for (const auto& [key, rec] : live) {
      d.add(key);
      d.add(static_cast<std::uint64_t>(rec->index));
      d.add(static_cast<std::uint64_t>(rec->deliveredTo.size()));
      for (bool delivered : rec->deliveredTo) d.add(delivered);
    }
  }
  d.add(collector.hellosSent_);
  d.add(collector.dataFramesSent_);
  image.statsDigest = d.value();
  image.hellosSent = collector.hellosSent_;
  image.dataFramesSent = collector.dataFramesSent_;
  image.broadcastsStarted = collector.order_.size();

  image.hasRegistry = registry != nullptr;
  if (registry != nullptr) {
    const auto counters = static_cast<std::size_t>(obs::Counter::kCount);
    image.counters.reserve(counters);
    for (std::size_t i = 0; i < counters; ++i) {
      image.counters.push_back(
          registry->counter(static_cast<obs::Counter>(i)));
    }
    const auto gauges = static_cast<std::size_t>(obs::Gauge::kCount);
    image.gauges.reserve(gauges);
    for (std::size_t i = 0; i < gauges; ++i) {
      image.gauges.push_back(registry->gauge(static_cast<obs::Gauge>(i)));
    }
    Digest hd;
    const auto hists = static_cast<std::size_t>(obs::Hist::kCount);
    for (std::size_t i = 0; i < hists; ++i) {
      const stats::Histogram& h =
          registry->histogram(static_cast<obs::Hist>(i));
      hd.add(h.count());
      hd.add(h.sum());
      hd.add(h.min());
      hd.add(h.max());
      for (std::size_t b = 0; b < stats::Histogram::kBuckets; ++b) {
        hd.add(h.bucketCount(b));
      }
    }
    image.histDigest = hd.value();
  }
  return image;
}

// --- host --------------------------------------------------------------

HostImage StateAccess::host(const experiment::Host& host) {
  HostImage image;
  image.id = host.id_.value();
  image.up = host.up_;
  image.nextSeq = host.nextSeq_.value();
  image.schemeRng = rng(host.schemeRng_);
  image.jitterRng = rng(host.jitterRng_);
  image.macDigest = macDigest(*host.mac_);
  image.helloDigest = helloDigest(*host.hello_);
  image.mobilityDigest = mobilityDigest(*host.mobility_);
  image.table = neighborTable(host.table_);
  image.broadcasts.reserve(host.states_.size());
  for (const auto& [bid, state] : host.states_) {
    BroadcastStateImage b;
    b.origin = bid.origin.value();
    b.seq = bid.seq.value();
    b.phase = static_cast<std::uint8_t>(state.phase);
    b.jitterPending = state.jitterTimer.pending();
    b.txId = state.txId;
    b.hasDecider = state.decider != nullptr;
    b.deciderDigest = state.decider ? state.decider->stateDigest() : 0;
    b.hasPacket = state.packet != nullptr;
    b.packetDigest = state.packet ? packetDigest(*state.packet) : 0;
    image.broadcasts.push_back(b);
  }
  std::sort(image.broadcasts.begin(), image.broadcasts.end(),
            [](const BroadcastStateImage& a, const BroadcastStateImage& b) {
              return a.origin < b.origin ||
                     (a.origin == b.origin && a.seq < b.seq);
            });
  return image;
}

// --- world -------------------------------------------------------------

WorldImage StateAccess::captureWorld(const experiment::World& world) {
  WorldImage image;
  image.configBlob = encodeConfig(world.config_);
  image.anchor = world.scheduler_.now();
  image.horizon = world.horizon_;
  image.scheduler = scheduler(world.scheduler_);
  image.channel = channel(world.channel_);
  image.traffic.workloadRng = rng(world.workloadRng_);
  image.traffic.schedule.reserve(world.workloadSchedule_.size());
  for (const traffic::Request& q : world.workloadSchedule_) {
    image.traffic.schedule.push_back(
        RequestImage{q.at, q.source.value(), q.seq});
  }
  image.traffic.churn.reserve(world.churnTimeline_.size());
  for (const fault::ChurnEvent& e : world.churnTimeline_) {
    image.traffic.churn.push_back(
        ChurnEventImage{e.node.value(), e.at, e.up});
  }
  image.traffic.downSince = world.downSince_;
  image.traffic.downAccum = world.downAccum_;
  image.fault = fault(world.lossModel_.get());
  image.metrics = metrics(world.metrics_, obs::current());
  image.hosts.reserve(world.hosts_.size());
  for (const auto& h : world.hosts_) image.hosts.push_back(host(*h));
  return image;
}

// --- thresholds --------------------------------------------------------

const std::vector<int>& StateAccess::counterValues(
    const core::CounterThreshold& fn) {
  return fn.values_;
}

core::CounterThreshold StateAccess::makeCounterThreshold(
    std::vector<int> values) {
  return core::CounterThreshold(std::move(values));
}

void StateAccess::areaFields(const core::AreaThreshold& fn, double& low,
                             double& high, int& n1, int& n2) {
  low = fn.low_;
  high = fn.high_;
  n1 = fn.n1_;
  n2 = fn.n2_;
}

core::AreaThreshold StateAccess::makeAreaThreshold(double low, double high,
                                                   int n1, int n2) {
  return core::AreaThreshold(low, high, n1, n2);
}

}  // namespace manet::ckpt
