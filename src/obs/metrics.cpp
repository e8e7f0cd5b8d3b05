#include "obs/metrics.hpp"

#include <atomic>

#include "util/env.hpp"

namespace manet::obs {

namespace detail {
thread_local Registry* tlsRegistry = nullptr;
}  // namespace detail

const char* name(Counter counter) {
  switch (counter) {
    case Counter::kSchedulerScheduled: return "sim.scheduler.scheduled";
    case Counter::kSchedulerExecuted: return "sim.scheduler.executed";
    case Counter::kSchedulerCancelled: return "sim.scheduler.cancelled";
    case Counter::kChannelTx: return "phy.channel.tx";
    case Counter::kChannelDelivered: return "phy.channel.delivered";
    case Counter::kChannelDropCollision: return "phy.channel.drop.collision";
    case Counter::kChannelDropHalfDuplex:
      return "phy.channel.drop.half_duplex";
    case Counter::kChannelDropFault: return "phy.channel.drop.fault_loss";
    case Counter::kChannelDropHostDown: return "phy.channel.drop.host_down";
    case Counter::kGridRebuilds: return "phy.grid.rebuilds";
    case Counter::kGridQueries: return "phy.grid.queries";
    case Counter::kGridFallbackQueries: return "phy.grid.fallback_queries";
    case Counter::kGridBboxFastPath: return "phy.grid.bbox_fast_path";
    case Counter::kGridCellsCovered: return "phy.grid.cells_covered";
    case Counter::kGridCellsScanned: return "phy.grid.cells_scanned";
    case Counter::kAirtimeBroadcastUs: return "mac.airtime_us.broadcast";
    case Counter::kMacBackoffDraws: return "mac.backoff.draws";
    case Counter::kHelloTx: return "net.hello.tx";
    case Counter::kHelloRx: return "net.hello.rx";
    case Counter::kNeighborJoins: return "net.neighbor.joins";
    case Counter::kNeighborLeaves: return "net.neighbor.leaves";
    case Counter::kEngineAllocEventSlabs: return "engine.alloc.event.slabs";
    case Counter::kEngineAllocEventReused: return "engine.alloc.event.reused";
    case Counter::kEngineAllocCallbackInline:
      return "engine.alloc.callback.inline";
    case Counter::kEngineAllocCallbackHeap:
      return "engine.alloc.callback.heap";
    case Counter::kEngineAllocPhyFrameFresh:
      return "engine.alloc.phy.frame.fresh";
    case Counter::kEngineAllocPhyFrameReused:
      return "engine.alloc.phy.frame.reused";
    case Counter::kTrafficOffered: return "traffic.offered";
    case Counter::kTrafficInjected: return "traffic.injected";
    case Counter::kTrafficBlockedHostDown: return "traffic.blocked.host_down";
    case Counter::kTrafficCompleted: return "traffic.completed";
    case Counter::kTrafficDeliveredCopies: return "traffic.delivered.copies";
    case Counter::kTrafficReachableSum: return "traffic.reachable.sum";
    case Counter::kCount: break;
  }
  return "?";
}

const char* name(Gauge gauge) {
  switch (gauge) {
    case Gauge::kSchedulerQueueDepth: return "sim.scheduler.queue_depth_hw";
    case Gauge::kNeighborTableSize: return "net.neighbor.table_size_hw";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* name(Hist hist) {
  switch (hist) {
    case Hist::kMacBackoffSlots: return "mac.backoff.slots";
    case Hist::kGridCellOccupancy: return "phy.grid.cell_occupancy";
    case Hist::kNeighborTableSize: return "net.neighbor.table_size";
    case Hist::kTrafficLatencyUs: return "traffic.latency_us";
    case Hist::kTrafficDeliveryPct: return "traffic.delivery_ratio_pct";
    case Hist::kCount: break;
  }
  return "?";
}

void Registry::merge(const Registry& other) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (other.gauges_[i] > gauges_[i]) gauges_[i] = other.gauges_[i];
  }
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    histograms_[i].merge(other.histograms_[i]);
  }
  for (const auto& [scope, stats] : other.scopes_) {
    ScopeStats& mine = scopes_[scope];
    mine.calls += stats.calls;
    mine.totalNanos += stats.totalNanos;
  }
}

namespace {
// Atomic because benches may force collection on the main thread while sweep
// workers consult it; relaxed is enough (it only gates registry creation).
std::atomic<bool> gForced{false};
}  // namespace

bool collectionEnabled() {
  static const bool fromEnv = util::envInt("MANET_METRICS", 0) != 0;
  return fromEnv || gForced.load(std::memory_order_relaxed);
}

void forceCollection(bool on) {
  gForced.store(on, std::memory_order_relaxed);
}

}  // namespace manet::obs
