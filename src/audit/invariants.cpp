#include "audit/invariants.hpp"

#include <string>

namespace manet::audit {

namespace {

std::string timesDetail(const char* what, sim::TimePoint observed,
                        const char* bound, sim::TimePoint limit) {
  return std::string(what) + "=" + std::to_string(observed.ticks()) + " " +
         bound + "=" + std::to_string(limit.ticks());
}

}  // namespace

// --- SchedulerAudit ---------------------------------------------------------

void SchedulerAudit::onSchedule(sim::TimePoint at, sim::TimePoint now) {
  if (at < now) {
    report({"scheduler.schedule-in-past", now, net::kInvalidHost,
            timesDetail("eventAt", at, "now", now)});
  }
}

void SchedulerAudit::onPop(sim::TimePoint at) {
  if (at < lastPop_) {
    report({"scheduler.monotonic-pop", at, net::kInvalidHost,
            timesDetail("poppedAt", at, "lastPop", lastPop_)});
  }
  lastPop_ = at;
}

void SchedulerAudit::onCancel(sim::TimePoint eventAt, sim::TimePoint now) {
  // Cancelling an event due exactly now is legal (same-timestamp inhibition,
  // the paper's step S5); an event strictly in the past can only still be
  // live if the pop loop skipped it — a race with the clock.
  if (eventAt < now) {
    report({"scheduler.cancel-past-event", now, net::kInvalidHost,
            timesDetail("eventAt", eventAt, "now", now)});
  }
}

void SchedulerAudit::onCount(std::size_t live, std::size_t heapResident,
                             std::size_t laneLive, sim::TimePoint now) {
  if (live != heapResident + laneLive) {
    report({"scheduler.count-drift", now, net::kInvalidHost,
            "live=" + std::to_string(live) +
                " heapResident=" + std::to_string(heapResident) +
                " laneLive=" + std::to_string(laneLive)});
  }
}

// --- ChannelAudit -----------------------------------------------------------

ChannelAudit::PerNode& ChannelAudit::node(net::HostId id) {
  if (id.value() >= nodes_.size()) nodes_.resize(id.value() + 1);
  return nodes_[id.value()];
}

void ChannelAudit::onBeginReception(net::HostId rx, sim::TimePoint at) {
  (void)at;
  ++node(rx).active;
  ++begins_;
}

void ChannelAudit::onEndReception(net::HostId rx, sim::TimePoint at) {
  PerNode& n = node(rx);
  if (n.active <= 0) {
    report({"channel.reception-underflow", at, rx,
            "reception ended with none in flight"});
    return;
  }
  --n.active;
  ++ends_;
}

void ChannelAudit::onEnergyRaise(net::HostId rx, sim::TimePoint at) {
  (void)at;
  ++node(rx).energy;
}

void ChannelAudit::onEnergyLower(net::HostId rx, sim::TimePoint at) {
  PerNode& n = node(rx);
  if (n.energy <= 0) {
    report({"channel.energy-underflow", at, rx,
            "carrier energy lowered below zero"});
    return;
  }
  --n.energy;
}

void ChannelAudit::onHostDown(net::HostId rx, std::size_t flushed,
                              sim::TimePoint at) {
  PerNode& n = node(rx);
  if (n.active != static_cast<std::int64_t>(flushed)) {
    report({"channel.flush-mismatch", at, rx,
            "flushed=" + std::to_string(flushed) +
                " inFlight=" + std::to_string(n.active)});
  }
  flushes_ += static_cast<std::uint64_t>(n.active > 0 ? n.active : 0);
  n.active = 0;
  n.energy = 0;
}

void ChannelAudit::onDeliveryWhileDown(net::HostId rx, sim::TimePoint at) {
  report({"channel.down-node-delivery", at, rx,
          "reception completed at a churned-down node"});
}

void ChannelAudit::atTeardown(std::uint64_t inFlight, sim::TimePoint at) {
  if (begins_ != ends_ + flushes_ + inFlight) {
    report({"channel.teardown-balance", at, net::kInvalidHost,
            "begins=" + std::to_string(begins_) +
                " ends=" + std::to_string(ends_) +
                " flushes=" + std::to_string(flushes_) +
                " inFlight=" + std::to_string(inFlight)});
  }
}

// --- DcfAudit ---------------------------------------------------------------

void DcfAudit::onTxStart(sim::TimePoint at) {
  if (onAir_) {
    report({"mac.onair-overlap", at, self_,
            "frame started while another was on air"});
  }
  onAir_ = true;
}

void DcfAudit::onTxEnd(sim::TimePoint at) {
  if (!onAir_) {
    report({"mac.onair-underflow", at, self_,
            "transmission ended with nothing on air"});
  }
  onAir_ = false;
}

void DcfAudit::onReset() { onAir_ = false; }

// --- NeighborAudit ----------------------------------------------------------

void NeighborAudit::onPurge(sim::TimePoint now) {
  if (now < lastPurge_) {
    report({"neighbor.purge-order", now, self_,
            timesDetail("now", now, "lastPurge", lastPurge_)});
  }
  lastPurge_ = now;
}

void NeighborAudit::onExpire(sim::TimePoint expiry, sim::TimePoint now) {
  // The table deletes h when no HELLO arrived for two intervals, i.e. only
  // once its deadline lies strictly in the past.
  if (expiry >= now) {
    report({"neighbor.premature-expiry", now, self_,
            timesDetail("expiry", expiry, "now", now)});
  }
}

void NeighborAudit::onClear() {
  lastPurge_ = sim::TimePoint{std::numeric_limits<std::int64_t>::min()};
}

// --- ChurnAudit -------------------------------------------------------------

void ChurnAudit::onCrashReset(net::HostId node, bool macQuiescent,
                              bool statesFlushed, bool tableCleared,
                              sim::TimePoint at) {
  if (macQuiescent && statesFlushed && tableCleared) return;
  std::string detail = "residue after crash reset:";
  if (!macQuiescent) detail += " mac-not-quiescent";
  if (!statesFlushed) detail += " broadcast-states";
  if (!tableCleared) detail += " neighbor-table";
  report({"churn.crash-reset-incomplete", at, node, detail});
}

}  // namespace manet::audit
