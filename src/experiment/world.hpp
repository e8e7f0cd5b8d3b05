// The assembled simulation: scheduler, channel, hosts, workload, metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "experiment/host.hpp"
#include "experiment/model_positions.hpp"
#include "experiment/scenario.hpp"
#include "mobility/map.hpp"
#include "phy/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/metrics.hpp"
#include "trace/event.hpp"

namespace manet::ckpt {
struct StateAccess;
}

namespace manet::experiment {

/// One broadcast request of the workload. `at` is absolute simulation time;
/// `seq` numbers requests in stream order.
struct WorkloadRequest {
  sim::TimePoint at{};
  net::HostId source{};
  std::uint32_t seq = 0;
};

class World {
 public:
  /// Builds hosts, mobility, MACs, and the policy from `config`
  /// (automatically resolved). `config` alone describes what is simulated;
  /// the one environment knob read here, MANET_CHANNEL_GRID, only picks an
  /// equivalent range-query path.
  explicit World(const ScenarioConfig& config);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs the full workload: warmup, `numBroadcasts` requests with
  /// U(0, interarrivalMax) spacing from uniformly chosen sources (the
  /// paper's workload), then the drain period. May be called once.
  void run();

  // --- split-run control (sliced runs, DESIGN.md §14) ---
  /// The schedule-everything prefix of run(): starts agents, schedules the
  /// workload, and fixes the horizon — without advancing time. May be
  /// called once; afterwards drive the clock with continueUntil()/
  /// runToEnd(). run() is exactly beginRun() + runToEnd().
  void beginRun();

  /// Advances the scheduler to `until` (an event boundary: events at
  /// exactly `until` fire). continueUntil(t); continueUntil(h) is
  /// byte-identical to continueUntil(h).
  void continueUntil(sim::TimePoint until);

  /// Advances to the run horizon (last workload request + drain).
  void runToEnd();

  /// The run horizon; meaningful after beginRun()/run().
  sim::TimePoint horizonTime() const { return horizon_; }

  /// Starts the periodic agents (HELLO) without scheduling any workload;
  /// lets tests drive broadcasts manually through host(id).
  void startAgents();

  // --- component access (used by tests, examples, and Host) ---
  sim::Scheduler& scheduler() { return scheduler_; }
  phy::Channel& channel() { return channel_; }
  /// Every host's position goes through here (or the channel over it), so
  /// that each host replays the channel's epochs before it is read.
  ModelPositions& positions() { return positions_; }
  stats::MetricsCollector& metrics() { return metrics_; }
  const ScenarioConfig& config() const { return config_; }
  const core::RebroadcastPolicy& policy() const { return *policy_; }
  Host& host(net::HostId id) { return *hosts_[id.value()]; }
  std::size_t hostCount() const { return hosts_.size(); }

  /// e for a broadcast starting now at `source`: Channel::reachableCount,
  /// a unit-disk BFS on the channel's grid.
  int reachableFrom(net::HostId source) const;

  /// Oracle neighborhood queries (true geometry at the current instant).
  int oracleNeighborCount(net::HostId id) const;
  std::vector<net::HostId> oracleNeighbors(net::HostId id) const;

  // --- workload (DESIGN.md §12) ---
  /// The (time, source, seq) request schedule the run injects, built in
  /// beginRun(); empty before that. bench/perf reads its size (ROADMAP
  /// item 10).
  const std::vector<WorkloadRequest>& workloadSchedule() const {
    return workloadSchedule_;
  }

  /// Installs an event trace sink (observational only: enabling tracing
  /// never changes the run). Must outlive the world. Pass nullptr to stop.
  void setTraceSink(trace::TraceSink* sink) { traceSink_ = sink; }
  trace::TraceSink* traceSink() const { return traceSink_; }

 private:
  friend struct manet::ckpt::StateAccess;

  void scheduleWorkload();
  std::vector<std::unique_ptr<mobility::MobilityModel>> buildMobility(
      const mobility::MapSpec& map, sim::Rng& master);

#if MANET_AUDIT_ENABLED
  /// Audited builds (§9): registered as the thread's audit sink for this
  /// world's lifetime. Mirrors every violation into the trace stream as a
  /// kAuditViolation event (when a sink is installed), then forwards to the
  /// previously registered sink — by default the print-and-abort one, or a
  /// test's capturing sink. Declared first so it outlives the channel's
  /// teardown ledger check.
  class AuditBridge final : public audit::Sink {
   public:
    explicit AuditBridge(World& world)
        : world_(world), previous_(audit::setSink(this)) {}
    ~AuditBridge() override { audit::setSink(previous_); }
    AuditBridge(const AuditBridge&) = delete;
    AuditBridge& operator=(const AuditBridge&) = delete;
    void onViolation(const audit::Violation& violation) override;

   private:
    World& world_;
    audit::Sink* previous_;
  };
  AuditBridge auditBridge_{*this};
#endif

  ScenarioConfig config_;  // the constructor's config, resolved()
  sim::Scheduler scheduler_;
  /// The channel's position source: every host's mobility model, by id.
  ModelPositions positions_{scheduler_};
  phy::Channel channel_;
  stats::MetricsCollector metrics_;
  std::unique_ptr<core::RebroadcastPolicy> policy_;
  std::vector<std::unique_ptr<Host>> hosts_;
  sim::Rng workloadRng_;
  sim::TimePoint horizon_{};
  bool ran_ = false;
  trace::TraceSink* traceSink_ = nullptr;
  std::vector<WorkloadRequest> workloadSchedule_;
};

}  // namespace manet::experiment
