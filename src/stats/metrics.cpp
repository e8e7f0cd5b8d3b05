#include "stats/metrics.hpp"

#include <algorithm>

#include "stats/histogram.hpp"
#include "util/assert.hpp"

namespace manet::stats {

double PerBroadcast::reachability() const {
  if (reachable <= 0) return 1.0;  // nobody to reach: vacuously complete
  return std::min(1.0, static_cast<double>(received) /
                           static_cast<double>(reachable));
}

double PerBroadcast::savedRebroadcast() const {
  if (received <= 0) return 0.0;
  return static_cast<double>(received - rebroadcast) /
         static_cast<double>(received);
}

double PerBroadcast::latencySeconds() const {
  return sim::toSeconds(std::max(sim::Duration{}, lastFinal - start));
}

double PerBroadcast::meanHops() const {
  if (received <= 0) return 0.0;
  return static_cast<double>(hopSum) / static_cast<double>(received);
}

MetricsCollector::MetricsCollector(std::size_t numHosts)
    : numHosts_(numHosts) {
  MANET_EXPECTS(numHosts > 0);
}

PerBroadcast& MetricsCollector::record(net::BroadcastId bid) {
  auto it = live_.find(bid);
  MANET_EXPECTS(it != live_.end());
  return order_[it->second];
}

void MetricsCollector::onBroadcastStart(net::BroadcastId bid,
                                        net::HostId source, sim::TimePoint now,
                                        int reachable) {
  MANET_EXPECTS(!live_.contains(bid));
  MANET_EXPECTS(source.value() < numHosts_);
  MANET_AUDIT_HOOK(audit_.onStart(order_.size(), source));
  live_.emplace(bid, order_.size());
  PerBroadcast pb;
  pb.bid = bid;
  pb.start = now;
  pb.reachable = reachable;
  pb.lastFinal = now;
  order_.push_back(pb);
  ++dataFramesSent_;  // the source's initial transmission
}

void MetricsCollector::onDelivered(net::BroadcastId bid, net::HostId host,
                                   sim::TimePoint now, int hops) {
  auto it = live_.find(bid);
  MANET_EXPECTS(it != live_.end());
  MANET_EXPECTS(host.value() < numHosts_);
  MANET_EXPECTS(hops >= 0);
  MANET_AUDIT_HOOK(audit_.onDelivered(it->second, host, now));
  PerBroadcast& pb = order_[it->second];
  ++pb.received;
  pb.hopSum += hops;
  pb.maxHops = std::max(pb.maxHops, hops);
  pb.lastFinal = std::max(pb.lastFinal, now);
}

void MetricsCollector::onRebroadcast(net::BroadcastId bid, net::HostId host,
                                     sim::TimePoint now) {
  PerBroadcast& pb = record(bid);
  (void)host;
  ++pb.rebroadcast;
  ++dataFramesSent_;
  pb.lastFinal = std::max(pb.lastFinal, now);
}

void MetricsCollector::onFinalized(net::BroadcastId bid, net::HostId host,
                                   sim::TimePoint now) {
  PerBroadcast& pb = record(bid);
  (void)host;
  pb.lastFinal = std::max(pb.lastFinal, now);
}

void MetricsCollector::onHelloSent(net::HostId) { ++hellosSent_; }

RunSummary MetricsCollector::summarize() const {
  RunningStat re;
  RunningStat srb;
  RunningStat latency;
  RunningStat hops;
  QuantileEstimator latencyQ;
  std::uint64_t received = 0;
  std::uint64_t rebroadcast = 0;
  std::uint64_t reachable = 0;
  for (const PerBroadcast& pb : order_) {
    if (pb.reachable > 0) re.add(pb.reachability());
    if (pb.received > 0) {
      srb.add(pb.savedRebroadcast());
      hops.add(pb.meanHops());
    }
    latency.add(pb.latencySeconds());
    latencyQ.add(pb.latencySeconds());
    received += static_cast<std::uint64_t>(std::max(0, pb.received));
    rebroadcast += static_cast<std::uint64_t>(std::max(0, pb.rebroadcast));
    reachable += static_cast<std::uint64_t>(std::max(0, pb.reachable));
  }
  RunSummary out;
  out.totalReceived = received;
  out.totalRebroadcast = rebroadcast;
  out.totalReachable = reachable;
  out.meanRe = re.mean();
  out.meanSrb = srb.mean();
  out.meanLatencySeconds = latency.mean();
  out.latencyP50Seconds = latencyQ.median();
  out.latencyP95Seconds = latencyQ.p95();
  out.meanHops = hops.mean();
  out.reCi95 = re.ci95();
  out.srbCi95 = srb.ci95();
  out.broadcasts = order_.size();
  out.hellosSent = hellosSent_;
  out.dataFramesSent = dataFramesSent_;
  return out;
}

}  // namespace manet::stats
