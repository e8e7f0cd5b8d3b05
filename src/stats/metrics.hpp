// Per-broadcast bookkeeping and the paper's three performance metrics (§4):
//
//   RE  = r / e       r = hosts that received the packet,
//                     e = hosts reachable from the source at initiation.
//   SRB = (r - t) / r t = receiving hosts that actually rebroadcast.
//   latency           initiation -> the last host either finishes its
//                     rebroadcast or decides not to rebroadcast.
//
// Plus hello-packet counters for Fig. 12b.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "net/ids.hpp"
#include "sim/time.hpp"
#include "stats/summary.hpp"

#if MANET_AUDIT_ENABLED
#include "audit/invariants.hpp"
#endif

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::stats {

struct PerBroadcast {
  net::BroadcastId bid{};
  sim::TimePoint start{};
  int reachable = 0;    // e
  int received = 0;     // r
  int rebroadcast = 0;  // t
  sim::TimePoint lastFinal{};
  long hopSum = 0;      // sum of delivery hop counts
  int maxHops = 0;

  /// RE; clamped to 1 (mobility can let r slightly exceed the snapshot e).
  double reachability() const;
  /// SRB; 0 when nothing was received.
  double savedRebroadcast() const;
  double latencySeconds() const;
  /// Mean hops a delivered copy travelled (0 when nothing was received).
  double meanHops() const;
};

struct RunSummary {
  double meanRe = 0.0;
  double meanSrb = 0.0;
  double meanLatencySeconds = 0.0;
  double latencyP50Seconds = 0.0;
  double latencyP95Seconds = 0.0;
  double meanHops = 0.0;
  double reCi95 = 0.0;
  double srbCi95 = 0.0;
  std::uint64_t broadcasts = 0;
  std::uint64_t hellosSent = 0;
  std::uint64_t dataFramesSent = 0;  // source tx + rebroadcasts

  // Raw per-broadcast counts summed over the run (and, in pooled results,
  // over runs). meanRe/meanSrb are means of per-broadcast ratios — the
  // paper's averaging; these totals let callers recompute the pooled-count
  // variants sum(r)/sum(e) and (sum(r)-sum(t))/sum(r) alongside them.
  std::uint64_t totalReceived = 0;     // sum of r
  std::uint64_t totalRebroadcast = 0;  // sum of t
  std::uint64_t totalReachable = 0;    // sum of e
};

class MetricsCollector {
 public:
  explicit MetricsCollector(std::size_t numHosts);

  /// Broadcast lifecycle ------------------------------------------------
  void onBroadcastStart(net::BroadcastId bid, net::HostId source,
                        sim::TimePoint now, int reachable);
  /// First intact reception at `host`. The host's duplicate detection
  /// calls this at most once per host per bid, never for the source
  /// (audited as metrics.duplicate-delivery). `hops`: distance the
  /// delivered copy travelled from the origin.
  void onDelivered(net::BroadcastId bid, net::HostId host, sim::TimePoint now,
                   int hops = 1);
  /// `host` started rebroadcasting bid (counted in t).
  void onRebroadcast(net::BroadcastId bid, net::HostId host, sim::TimePoint now);
  /// `host` reached its terminal state for bid: finished its (re)broadcast
  /// transmission, or was inhibited. Extends the latency horizon.
  void onFinalized(net::BroadcastId bid, net::HostId host, sim::TimePoint now);

  /// Hello accounting -----------------------------------------------------
  void onHelloSent(net::HostId host);

  /// Results ---------------------------------------------------------------
  const std::vector<PerBroadcast>& broadcasts() const { return order_; }
  /// Position of `bid` in broadcasts(); nullopt if it never started.
  std::optional<std::size_t> indexOf(net::BroadcastId bid) const {
    auto it = live_.find(bid);
    if (it == live_.end()) return std::nullopt;
    return it->second;
  }
  std::uint64_t hellosSent() const { return hellosSent_; }
  RunSummary summarize() const;

 private:
  friend struct manet::ckpt::StateAccess;
  PerBroadcast& record(net::BroadcastId bid);

  std::size_t numHosts_;
  /// Broadcast id -> its index in order_.
  std::unordered_map<net::BroadcastId, std::size_t, net::BroadcastIdHash>
      live_;
  std::vector<PerBroadcast> order_;
  std::uint64_t hellosSent_ = 0;
  std::uint64_t dataFramesSent_ = 0;
#if MANET_AUDIT_ENABLED
  audit::DeliveryAudit audit_;
#endif
};

}  // namespace manet::stats
