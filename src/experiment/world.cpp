#include "experiment/world.hpp"

#include "mobility/random_roam.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace manet::experiment {

#if MANET_AUDIT_ENABLED
void World::AuditBridge::onViolation(const audit::Violation& violation) {
  if (world_.traceSink_ != nullptr) {
    trace::Event event;
    event.kind = trace::EventKind::kAuditViolation;
    event.at = violation.at;
    event.node = violation.node;
    world_.traceSink_->onEvent(event);
  }
  // Preserve fail-stop semantics: forward to whatever sink was registered
  // before this world (a test's capturing sink, an outer world's bridge, or
  // the default print-and-abort sink).
  audit::Sink& next =
      previous_ != nullptr ? *previous_ : audit::defaultSink();
  next.onViolation(violation);
}
#endif

World::World(const ScenarioConfig& config)
    : config_(config.resolved()),
      channel_(scheduler_, config_.phy, positions_),
      metrics_(static_cast<std::size_t>(config_.numHosts)),
      workloadRng_(sim::Rng(config_.seed).fork(0xF00D)) {
  channel_.setCollisionsEnabled(config_.collisions);
  channel_.setGridEnabled(config_.channelGrid &&
                          util::envInt("MANET_CHANNEL_GRID", 1) != 0);

  const mobility::MapSpec map =
      mobility::MapSpec::square(config_.mapUnits, config_.unitMeters);
  sim::Rng master(config_.seed);
  std::vector<std::unique_ptr<mobility::MobilityModel>> models =
      buildMobility(map, master);
  MANET_ASSERT(models.size() == static_cast<std::size_t>(config_.numHosts));
  hosts_.reserve(static_cast<std::size_t>(config_.numHosts));
  for (int i = 0; i < config_.numHosts; ++i) {
    sim::Rng hostRng = master.fork(static_cast<std::uint64_t>(i) + 1);
    hosts_.push_back(std::make_unique<Host>(
        *this, net::HostId{static_cast<std::uint32_t>(i)},
        std::move(models[static_cast<std::size_t>(i)]), hostRng.fork(0xB0)));
    positions_.add(hosts_.back()->mobility());
  }
}

std::vector<std::unique_ptr<mobility::MobilityModel>> World::buildMobility(
    const mobility::MapSpec& map, sim::Rng& master) {
  std::vector<std::unique_ptr<mobility::MobilityModel>> models;
  models.reserve(static_cast<std::size_t>(config_.numHosts));

  if (!config_.fixedPositions.empty()) {
    for (const geom::Vec2& pos : config_.fixedPositions) {
      models.push_back(std::make_unique<mobility::Stationary>(pos));
    }
    return models;
  }

  mobility::RoamParams roam;
  roam.maxSpeedMps = mobility::kmhToMps(config_.maxSpeedKmh);
  for (int i = 0; i < config_.numHosts; ++i) {
    sim::Rng rng = master.fork(0xA000 + static_cast<std::uint64_t>(i));
    models.push_back(std::make_unique<mobility::RandomRoam>(
        map, map.uniformPoint(rng), roam, rng.fork(0xA0)));
  }
  return models;
}

void World::startAgents() {
  for (auto& host : hosts_) host->start();
}

int World::reachableFrom(net::HostId source) const {
  return static_cast<int>(channel_.reachableCount(source));
}

int World::oracleNeighborCount(net::HostId id) const {
  return static_cast<int>(channel_.inRangeCount(id));
}

std::vector<net::HostId> World::oracleNeighbors(net::HostId id) const {
  return channel_.nodesInRange(id);
}

void World::scheduleWorkload() {
  // The paper's workload (§4): per request, a U(0, interarrivalMax) gap,
  // then a uniformly random source, both drawn from the workload stream.
  MANET_EXPECTS(config_.interarrivalMax >= sim::Duration{});
  const auto requests = static_cast<std::size_t>(config_.numBroadcasts);
  workloadSchedule_.reserve(requests);
  sim::TimePoint at = sim::kTimeZero + config_.warmup;
  for (std::size_t i = 0; i < requests; ++i) {
    at += workloadRng_.uniformDuration(sim::Duration{},
                                       config_.interarrivalMax);
    const net::HostId source{static_cast<std::uint32_t>(
        workloadRng_.uniformInt(0, config_.numHosts - 1))};
    workloadSchedule_.push_back({at, source, static_cast<std::uint32_t>(i)});
  }
  obs::add(obs::Counter::kTrafficOffered, workloadSchedule_.size());
  for (const WorkloadRequest& request : workloadSchedule_) {
    const net::HostId source = request.source;
    scheduler_.schedule(request.at, [this, source] {
      obs::add(obs::Counter::kTrafficInjected);
      hosts_[source.value()]->originateBroadcast();
    });
  }
  horizon_ = at + config_.drain;
}

void World::beginRun() {
  MANET_EXPECTS(!ran_);
  ran_ = true;
  startAgents();
  scheduleWorkload();
}

void World::continueUntil(sim::TimePoint until) {
  scheduler_.runUntil(until);
}

void World::runToEnd() { scheduler_.runUntil(horizon_); }

void World::run() {
  beginRun();
  runToEnd();
}

}  // namespace manet::experiment
