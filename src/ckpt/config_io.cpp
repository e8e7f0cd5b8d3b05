#include "ckpt/config_io.hpp"

#include <string>

#include "ckpt/io.hpp"
#include "ckpt/state_access.hpp"
#include "core/threshold.hpp"

namespace manet::ckpt {
namespace {

using experiment::ScenarioConfig;
using experiment::SchemeSpec;

void encodeVec2(Writer& w, geom::Vec2 v) {
  w.f64(v.x);
  w.f64(v.y);
}

geom::Vec2 decodeVec2(Reader& r) {
  geom::Vec2 v;
  v.x = r.f64();
  v.y = r.f64();
  return v;
}

std::uint64_t countGuard(Reader& r, const char* what) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining()) {
    throw Error(std::string("implausible config ") + what + " count " +
                std::to_string(n));
  }
  return n;
}

void encodeScheme(Writer& w, const SchemeSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.type));
  w.f64(s.probability);
  w.i64(s.counterC);
  w.f64(s.distanceD);
  w.f64(s.areaA);
  const std::vector<int>& cv = StateAccess::counterValues(s.counterFn);
  w.u64(cv.size());
  for (int v : cv) w.i64(v);
  double low = 0.0;
  double high = 0.0;
  int n1 = 0;
  int n2 = 0;
  StateAccess::areaFields(s.areaFn, low, high, n1, n2);
  w.f64(low);
  w.f64(high);
  w.i64(n1);
  w.i64(n2);
  w.i64(s.clusterInnerCounter);
  w.str(s.label);
}

SchemeSpec decodeScheme(Reader& r) {
  SchemeSpec s;
  s.type = static_cast<SchemeSpec::Type>(r.u8());
  s.probability = r.f64();
  s.counterC = static_cast<int>(r.i64());
  s.distanceD = r.f64();
  s.areaA = r.f64();
  std::vector<int> cv(countGuard(r, "counter threshold"));
  for (int& v : cv) v = static_cast<int>(r.i64());
  s.counterFn = StateAccess::makeCounterThreshold(std::move(cv));
  const double low = r.f64();
  const double high = r.f64();
  const int n1 = static_cast<int>(r.i64());
  const int n2 = static_cast<int>(r.i64());
  s.areaFn = StateAccess::makeAreaThreshold(low, high, n1, n2);
  s.clusterInnerCounter = static_cast<int>(r.i64());
  s.label = r.str();
  return s;
}

}  // namespace

std::vector<std::uint8_t> encodeConfig(const ScenarioConfig& c) {
  Writer w;
  // topology
  w.i64(c.mapUnits);
  w.f64(c.unitMeters);
  w.i64(c.numHosts);
  w.f64(c.maxSpeedKmh);
  w.u64(c.fixedPositions.size());
  for (geom::Vec2 p : c.fixedPositions) encodeVec2(w, p);
  w.u8(static_cast<std::uint8_t>(c.mobility));
  w.i64(c.groupSize);
  w.f64(c.groupSpanMeters);
  // scheme
  encodeScheme(w, c.scheme);
  w.u8(static_cast<std::uint8_t>(c.neighborSource));
  w.boolean(c.hello.enabled);
  w.duration(c.hello.interval);
  w.boolean(c.hello.dynamic);
  w.duration(c.hello.intervalMin);
  w.duration(c.hello.intervalMax);
  w.f64(c.hello.nvMax);
  w.boolean(c.hello.piggybackNeighbors);
  w.u64(c.hello.baseBytes);
  w.u64(c.hello.perNeighborBytes);
  w.duration(c.hello.startJitter);
  w.f64(c.hello.periodJitterFraction);
  // workload
  w.i64(c.numBroadcasts);
  w.duration(c.interarrivalMax);
  w.u8(static_cast<std::uint8_t>(c.traffic.arrival));
  w.f64(c.traffic.poissonRatePerSecond);
  w.duration(c.traffic.period);
  w.i64(c.traffic.burstLength);
  w.duration(c.traffic.burstGapMax);
  w.duration(c.traffic.burstIdleMean);
  w.u64(c.traffic.replay.size());
  for (const traffic::Request& q : c.traffic.replay) {
    w.time(q.at);
    w.u32(q.source.value());
    w.u32(q.seq);
  }
  w.u8(static_cast<std::uint8_t>(c.traffic.sources));
  w.i64(c.traffic.hotspotCount);
  w.u64(c.traffic.hotspotIds.size());
  for (net::HostId id : c.traffic.hotspotIds) w.u32(id.value());
  w.f64(c.traffic.zoneX0);
  w.f64(c.traffic.zoneY0);
  w.f64(c.traffic.zoneX1);
  w.f64(c.traffic.zoneY1);
  w.duration(c.warmup);
  w.duration(c.drain);
  // protocol details
  w.f64(c.phy.radiusMeters);
  w.f64(c.phy.bitRateBps);
  w.duration(c.phy.plcpPreamble);
  w.duration(c.phy.plcpHeader);
  w.duration(c.phy.carrierSenseDelay);
  w.duration(c.mac.slot);
  w.duration(c.mac.difs);
  w.i64(c.mac.cwBroadcast);
  w.i64(c.jitterSlots);
  w.boolean(c.collisions);
  w.boolean(c.channelGrid);
  // fault
  w.u8(static_cast<std::uint8_t>(c.fault.loss));
  w.f64(c.fault.per);
  w.f64(c.fault.geLossGood);
  w.f64(c.fault.geLossBad);
  w.f64(c.fault.geGoodToBad);
  w.f64(c.fault.geBadToGood);
  w.boolean(c.fault.churn);
  w.f64(c.fault.churnFraction);
  w.duration(c.fault.meanUpTime);
  w.duration(c.fault.meanDownTime);
  w.u64(c.fault.script.size());
  for (const fault::ChurnEvent& e : c.fault.script) {
    w.u32(e.node.value());
    w.time(e.at);
    w.boolean(e.up);
  }
  w.u64(c.seed);
  return w.take();
}

experiment::ScenarioConfig decodeConfig(const std::vector<std::uint8_t>& b) {
  Reader r(b);
  ScenarioConfig c;
  c.mapUnits = static_cast<int>(r.i64());
  c.unitMeters = r.f64();
  c.numHosts = static_cast<int>(r.i64());
  c.maxSpeedKmh = r.f64();
  c.fixedPositions.resize(countGuard(r, "fixed position"));
  for (geom::Vec2& p : c.fixedPositions) p = decodeVec2(r);
  c.mobility = static_cast<ScenarioConfig::Mobility>(r.u8());
  c.groupSize = static_cast<int>(r.i64());
  c.groupSpanMeters = r.f64();
  c.scheme = decodeScheme(r);
  c.neighborSource = static_cast<experiment::NeighborSource>(r.u8());
  c.hello.enabled = r.boolean();
  c.hello.interval = r.duration();
  c.hello.dynamic = r.boolean();
  c.hello.intervalMin = r.duration();
  c.hello.intervalMax = r.duration();
  c.hello.nvMax = r.f64();
  c.hello.piggybackNeighbors = r.boolean();
  c.hello.baseBytes = static_cast<std::size_t>(r.u64());
  c.hello.perNeighborBytes = static_cast<std::size_t>(r.u64());
  c.hello.startJitter = r.duration();
  c.hello.periodJitterFraction = r.f64();
  c.numBroadcasts = static_cast<int>(r.i64());
  c.interarrivalMax = r.duration();
  c.traffic.arrival = static_cast<traffic::TrafficConfig::Arrival>(r.u8());
  c.traffic.poissonRatePerSecond = r.f64();
  c.traffic.period = r.duration();
  c.traffic.burstLength = static_cast<int>(r.i64());
  c.traffic.burstGapMax = r.duration();
  c.traffic.burstIdleMean = r.duration();
  c.traffic.replay.resize(countGuard(r, "replay request"));
  for (traffic::Request& q : c.traffic.replay) {
    q.at = r.time();
    q.source = net::HostId{r.u32()};
    q.seq = r.u32();
  }
  c.traffic.sources = static_cast<traffic::TrafficConfig::Sources>(r.u8());
  c.traffic.hotspotCount = static_cast<int>(r.i64());
  c.traffic.hotspotIds.resize(countGuard(r, "hotspot id"));
  for (net::HostId& id : c.traffic.hotspotIds) id = net::HostId{r.u32()};
  c.traffic.zoneX0 = r.f64();
  c.traffic.zoneY0 = r.f64();
  c.traffic.zoneX1 = r.f64();
  c.traffic.zoneY1 = r.f64();
  c.warmup = r.duration();
  c.drain = r.duration();
  c.phy.radiusMeters = r.f64();
  c.phy.bitRateBps = r.f64();
  c.phy.plcpPreamble = r.duration();
  c.phy.plcpHeader = r.duration();
  c.phy.carrierSenseDelay = r.duration();
  c.mac.slot = r.duration();
  c.mac.difs = r.duration();
  c.mac.cwBroadcast = static_cast<int>(r.i64());
  c.jitterSlots = static_cast<int>(r.i64());
  c.collisions = r.boolean();
  c.channelGrid = r.boolean();
  c.fault.loss = static_cast<fault::FaultConfig::Loss>(r.u8());
  c.fault.per = r.f64();
  c.fault.geLossGood = r.f64();
  c.fault.geLossBad = r.f64();
  c.fault.geGoodToBad = r.f64();
  c.fault.geBadToGood = r.f64();
  c.fault.churn = r.boolean();
  c.fault.churnFraction = r.f64();
  c.fault.meanUpTime = r.duration();
  c.fault.meanDownTime = r.duration();
  c.fault.script.resize(countGuard(r, "churn script event"));
  for (fault::ChurnEvent& e : c.fault.script) {
    e.node = net::HostId{r.u32()};
    e.at = r.time();
    e.up = r.boolean();
  }
  c.seed = r.u64();
  if (!r.atEnd()) {
    throw Error("trailing bytes after config payload");
  }
  return c;
}

}  // namespace manet::ckpt
