#include "net/hello.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/inline_fn.hpp"
#include "util/assert.hpp"

namespace manet::net {

HelloAgent::HelloAgent(sim::Scheduler& scheduler, mac::DcfMac& mac,
                       NeighborTable& table, HelloConfig config, sim::Rng rng)
    : scheduler_(scheduler),
      mac_(mac),
      table_(table),
      config_(config),
      rng_(rng),
      currentInterval_(config.dynamic ? config.intervalMax : config.interval) {
  MANET_EXPECTS(config_.interval > sim::Duration{});
  MANET_EXPECTS(config_.intervalMin > sim::Duration{});
  MANET_EXPECTS(config_.intervalMax >= config_.intervalMin);
  MANET_EXPECTS(config_.nvMax > 0.0);
  MANET_EXPECTS(config_.periodJitterFraction >= 0.0 &&
                config_.periodJitterFraction < 1.0);
}

sim::Duration HelloAgent::dynamicInterval(const HelloConfig& config,
                                          double nv) {
  if (nv >= config.nvMax) return config.intervalMin;
  const sim::Duration raw =
      sim::scaleRound(config.intervalMax, (config.nvMax - nv) / config.nvMax);
  return std::clamp(raw, config.intervalMin, config.intervalMax);
}

void HelloAgent::start() {
  if (!config_.enabled) return;
  const sim::Duration jitter =
      config_.startJitter > sim::Duration{}
          ? rng_.uniformDuration(sim::Duration{}, config_.startJitter)
          : sim::Duration{};
  timer_ = scheduler_.scheduleAfter(jitter, [this] { sendHello(); });
}

void HelloAgent::sendHello() {
  const sim::TimePoint now = scheduler_.now();
  if (config_.dynamic) {
    currentInterval_ =
        dynamicInterval(config_, table_.neighborhoodVariation(now));
  } else {
    currentInterval_ = config_.interval;
  }

  Packet packet;
  packet.type = PacketType::kHello;
  packet.sender = mac_.self();
  packet.helloInterval = currentInterval_;
  std::size_t bytes = config_.baseBytes;
  if (config_.piggybackNeighbors) {
    // Built once here; every receiver's table shares this list.
    auto neighbors =
        std::make_shared<const std::vector<HostId>>(table_.neighborIds(now));
    bytes += config_.perNeighborBytes * neighbors->size();
    packet.helloNeighbors = std::move(neighbors);
  }
  mac_.enqueue(std::move(packet), bytes);
  ++hellosSent_;
  obs::add(obs::Counter::kHelloTx);

  sim::Duration next = currentInterval_;
  if (config_.periodJitterFraction > 0.0) {
    const double shrink = rng_.uniform(0.0, config_.periodJitterFraction);
    next -= sim::scaleTrunc(next, shrink);
    if (next < sim::kMicrosecond) next = sim::kMicrosecond;
  }
  auto beaconCb = [this] { sendHello(); };
  static_assert(sim::InlineFn::storesInline<decltype(beaconCb)>(),
                "HELLO beacon capture must fit the event node");
  timer_ = scheduler_.scheduleAfter(next, std::move(beaconCb));
}

}  // namespace manet::net
