// Observability-layer tests (DESIGN.md §10): the metrics registry must be
// invisible to the simulation (metrics-on results identical to metrics-off),
// thread-count-invariant when repetitions merge, and the JSON report must
// round-trip against its own parser and schema.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "experiment/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "stats/histogram.hpp"

namespace manet {
namespace {

/// RAII guard: forces metrics collection for one test and always restores
/// the off state (collection is a process-global toggle).
class ForcedCollection {
 public:
  ForcedCollection() { obs::forceCollection(true); }
  ~ForcedCollection() { obs::forceCollection(false); }
};

experiment::ScenarioConfig tinyScenario() {
  experiment::ScenarioConfig c;
  c.numHosts = 20;
  c.numBroadcasts = 3;
  c.seed = 11;
  return c;
}

experiment::ScenarioConfig helloScenario() {
  experiment::ScenarioConfig c = tinyScenario();
  c.scheme = experiment::SchemeSpec::neighborCoverage();
  c.neighborSource = experiment::NeighborSource::kHello;
  c.hello.enabled = true;
  c.hello.dynamic = true;
  return c;
}

// --- stats::Histogram ---

TEST(Histogram, BucketEdgesArePowersOfTwo) {
  using stats::Histogram;
  EXPECT_EQ(Histogram::bucketOf(0.0), 0U);
  EXPECT_EQ(Histogram::bucketOf(-5.0), 0U);
  EXPECT_EQ(Histogram::bucketOf(0.999), 0U);
  EXPECT_EQ(Histogram::bucketOf(1.0), 1U);
  EXPECT_EQ(Histogram::bucketOf(1.5), 1U);
  EXPECT_EQ(Histogram::bucketOf(2.0), 2U);
  EXPECT_EQ(Histogram::bucketOf(3.9), 2U);
  EXPECT_EQ(Histogram::bucketOf(4.0), 3U);
  EXPECT_EQ(Histogram::bucketOf(1e30), Histogram::kBuckets - 1);
  // Samples land strictly below their bucket's exclusive upper edge.
  for (double v : {0.3, 1.0, 7.0, 100.0, 12345.6}) {
    const std::size_t b = Histogram::bucketOf(v);
    EXPECT_LT(v, Histogram::bucketUpper(b)) << v;
  }
}

TEST(Histogram, ObserveTracksCountSumMinMax) {
  stats::Histogram h;
  EXPECT_EQ(h.count(), 0U);
  h.observe(3.0);
  h.observe(1.0);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 3.0);
}

TEST(Histogram, OrderedMergeEqualsSequentialObservation) {
  stats::Histogram first;
  stats::Histogram second;
  stats::Histogram sequential;
  for (double v : {0.5, 2.0, 9.0}) {
    first.observe(v);
    sequential.observe(v);
  }
  for (double v : {4.0, 0.25, 700.0}) {
    second.observe(v);
    sequential.observe(v);
  }
  stats::Histogram merged;
  merged.merge(first);
  merged.merge(second);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.sum(), sequential.sum());  // bitwise: same add order
  EXPECT_EQ(merged.min(), sequential.min());
  EXPECT_EQ(merged.max(), sequential.max());
  for (std::size_t b = 0; b < stats::Histogram::kBuckets; ++b) {
    EXPECT_EQ(merged.bucketCount(b), sequential.bucketCount(b)) << b;
  }
}

// --- registry plumbing ---

TEST(Registry, ScopedInstallAndRestore) {
  EXPECT_EQ(obs::current(), nullptr);
  obs::Registry outer;
  {
    obs::ScopedRegistry s1(&outer);
    EXPECT_EQ(obs::current(), &outer);
    obs::Registry inner;
    {
      obs::ScopedRegistry s2(&inner);
      EXPECT_EQ(obs::current(), &inner);
      obs::add(obs::Counter::kHelloTx);
    }
    EXPECT_EQ(obs::current(), &outer);
    EXPECT_EQ(inner.counter(obs::Counter::kHelloTx), 1U);
    EXPECT_EQ(outer.counter(obs::Counter::kHelloTx), 0U);
  }
  EXPECT_EQ(obs::current(), nullptr);
  // With no registry installed the helpers are no-ops, not crashes.
  obs::add(obs::Counter::kHelloTx);
  obs::gaugeMax(obs::Gauge::kSchedulerQueueDepth, 99);
  obs::observe(obs::Hist::kMacBackoffSlots, 1.0);
}

TEST(Registry, MergeAddsCountersMaxesGaugesAccumulatesScopes) {
  obs::Registry a;
  obs::Registry b;
  a.add(obs::Counter::kChannelTx, 5);
  b.add(obs::Counter::kChannelTx, 7);
  a.gaugeMax(obs::Gauge::kSchedulerQueueDepth, 10);
  b.gaugeMax(obs::Gauge::kSchedulerQueueDepth, 4);
  a.recordScope("scenario.run", 100);
  b.recordScope("scenario.run", 50);
  b.recordScope("scenario.build", 25);
  a.merge(b);
  EXPECT_EQ(a.counter(obs::Counter::kChannelTx), 12U);
  EXPECT_EQ(a.gauge(obs::Gauge::kSchedulerQueueDepth), 10U);
  EXPECT_EQ(a.scopes().at("scenario.run").calls, 2U);
  EXPECT_EQ(a.scopes().at("scenario.run").totalNanos, 150U);
  EXPECT_EQ(a.scopes().at("scenario.build").calls, 1U);
}

TEST(Profile, ScopeRecordsOnlyWhenRegistryInstalled) {
  {
    obs::ProfileScope idle("no.registry");  // must not crash
  }
  obs::Registry r;
  {
    obs::ScopedRegistry s(&r);
    obs::ProfileScope scope("unit.test");
  }
  ASSERT_EQ(r.scopes().count("unit.test"), 1U);
  EXPECT_EQ(r.scopes().at("unit.test").calls, 1U);
}

// --- metric names are a stable, collision-free catalogue ---

TEST(MetricNames, UniqueAndDotted) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Counter::kCount);
       ++i) {
    const std::string n = obs::name(static_cast<obs::Counter>(i));
    EXPECT_NE(n, "?");
    EXPECT_NE(n.find('.'), std::string::npos) << n;
    EXPECT_TRUE(seen.insert(n).second) << "duplicate " << n;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Gauge::kCount);
       ++i) {
    EXPECT_TRUE(seen.insert(obs::name(static_cast<obs::Gauge>(i))).second);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Hist::kCount);
       ++i) {
    EXPECT_TRUE(seen.insert(obs::name(static_cast<obs::Hist>(i))).second);
  }
}

// --- JSON writer/parser round trip ---

TEST(Json, WriterEscapesAndParserRoundTrips) {
  std::ostringstream out;
  obs::json::Writer w(out);
  w.beginObject();
  w.field("plain", "value");
  w.field("escaped", "a\"b\\c\nd\te");
  w.field("integer", std::uint64_t{18446744073709551615ULL});
  w.field("negative", std::int64_t{-42});
  w.field("fraction", 0.1);
  w.field("flag", true);
  w.key("nested");
  w.beginArray();
  w.value(1.5);
  w.beginObject();
  w.field("k", "v");
  w.endObject();
  w.endArray();
  w.endObject();

  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->isObject());
  EXPECT_EQ(doc->find("plain")->str, "value");
  EXPECT_EQ(doc->find("escaped")->str, "a\"b\\c\nd\te");
  EXPECT_EQ(doc->find("negative")->num, -42.0);
  EXPECT_DOUBLE_EQ(doc->find("fraction")->num, 0.1);
  EXPECT_TRUE(doc->find("flag")->boolean);
  const obs::json::Value* nested = doc->find("nested");
  ASSERT_TRUE(nested != nullptr && nested->isArray());
  ASSERT_EQ(nested->array.size(), 2U);
  EXPECT_DOUBLE_EQ(nested->array[0].num, 1.5);
  EXPECT_EQ(nested->array[1].find("k")->str, "v");
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_FALSE(obs::json::parse("").has_value());
  EXPECT_FALSE(obs::json::parse("{").has_value());
  EXPECT_FALSE(obs::json::parse("{}extra").has_value());
  EXPECT_FALSE(obs::json::parse("{'single':1}").has_value());
  EXPECT_FALSE(obs::json::parse("[1,]").has_value());
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(obs::json::number(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(obs::json::number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

// --- report schema round trip ---

TEST(Report, RoundTripsAgainstSchema) {
  ::setenv("REPRO_OBS_TEST_KNOB", "17", 1);
  obs::Registry reg;
  reg.add(obs::Counter::kChannelTx, 123);
  reg.gaugeMax(obs::Gauge::kSchedulerQueueDepth, 9);
  reg.observe(obs::Hist::kMacBackoffSlots, 3.0);
  reg.observe(obs::Hist::kMacBackoffSlots, 900.0);
  reg.recordScope("scenario.run", 1000);

  obs::RunSample sample;
  sample.label = "unit/row";
  sample.scheme = "flooding";
  sample.seed = 77;
  sample.re = 0.875;
  sample.framesTransmitted = 123;
  sample.metrics = std::make_shared<obs::Registry>(reg);

  std::ostringstream out;
  obs::writeReport(out, "unit_bench", {sample});
  ::unsetenv("REPRO_OBS_TEST_KNOB");

  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  EXPECT_EQ(doc->find("schema")->str, obs::kSchema);
  EXPECT_EQ(doc->find("schemaVersion")->num, obs::kSchemaVersion);
  EXPECT_EQ(doc->find("bench")->str, "unit_bench");

  const obs::json::Value* env = doc->find("environment");
  ASSERT_NE(env, nullptr);
  ASSERT_NE(env->find("gitSha"), nullptr);
  ASSERT_NE(env->find("buildType"), nullptr);
  const obs::json::Value* knobs = env->find("env");
  ASSERT_NE(knobs, nullptr);
  ASSERT_NE(knobs->find("REPRO_OBS_TEST_KNOB"), nullptr);
  EXPECT_EQ(knobs->find("REPRO_OBS_TEST_KNOB")->str, "17");

  const obs::json::Value* results = doc->find("results");
  ASSERT_TRUE(results != nullptr && results->isArray());
  ASSERT_EQ(results->array.size(), 1U);
  const obs::json::Value& row = results->array[0];
  EXPECT_EQ(row.find("label")->str, "unit/row");
  EXPECT_EQ(row.find("seed")->num, 77.0);
  EXPECT_DOUBLE_EQ(row.find("re")->num, 0.875);

  const obs::json::Value* metrics = row.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const obs::json::Value* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  // Every catalogued counter appears by its dotted name, in enum order.
  ASSERT_EQ(counters->object.size(),
            static_cast<std::size_t>(obs::Counter::kCount));
  EXPECT_EQ(counters->object[0].first,
            obs::name(static_cast<obs::Counter>(0)));
  EXPECT_EQ(counters->find("phy.channel.tx")->num, 123.0);
  const obs::json::Value* hist =
      metrics->find("histograms")->find("mac.backoff.slots");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->num, 2.0);
  // Sparse [upper, count] bucket pairs: two distinct buckets here.
  EXPECT_EQ(hist->find("buckets")->array.size(), 2U);
  ASSERT_NE(metrics->find("profile"), nullptr);
  EXPECT_EQ(metrics->find("profile")->find("scenario.run")->find("calls")
                ->num,
            1.0);
}

TEST(Report, MetricsJsonWithoutTimingOmitsProfile) {
  obs::Registry reg;
  reg.recordScope("scenario.run", 1000);
  const std::string with = obs::metricsJson(reg, /*includeTiming=*/true);
  const std::string without = obs::metricsJson(reg, /*includeTiming=*/false);
  EXPECT_NE(with.find("profile"), std::string::npos);
  EXPECT_EQ(without.find("profile"), std::string::npos);
}

// --- the differential guarantee: metrics collection changes nothing ---

TEST(Differential, MetricsOnRunMatchesMetricsOffRun) {
  const experiment::ScenarioConfig config = helloScenario();
  const experiment::RunResult off = experiment::runScenario(config);
  ASSERT_EQ(off.metrics, nullptr);

  experiment::RunResult on;
  {
    ForcedCollection forced;
    on = experiment::runScenario(config);
  }
  ASSERT_NE(on.metrics, nullptr);

  // Everything the simulation can observe must be bit-identical.
  EXPECT_EQ(off.re(), on.re());
  EXPECT_EQ(off.srb(), on.srb());
  EXPECT_EQ(off.latency(), on.latency());
  EXPECT_EQ(off.hellosPerHostPerSecond, on.hellosPerHostPerSecond);
  EXPECT_EQ(off.framesTransmitted, on.framesTransmitted);
  EXPECT_EQ(off.framesDelivered, on.framesDelivered);
  EXPECT_EQ(off.framesCorrupted, on.framesCorrupted);
  EXPECT_EQ(off.simulatedSeconds, on.simulatedSeconds);
  EXPECT_EQ(off.summary.broadcasts, on.summary.broadcasts);
  EXPECT_EQ(off.summary.totalReceived, on.summary.totalReceived);
  EXPECT_EQ(off.summary.totalRebroadcast, on.summary.totalRebroadcast);
  EXPECT_EQ(off.summary.hellosSent, on.summary.hellosSent);
}

TEST(Differential, CollectedCountersAgreeWithChannelAccounting) {
  ForcedCollection forced;
  const experiment::RunResult r = experiment::runScenario(helloScenario());
  ASSERT_NE(r.metrics, nullptr);
  const obs::Registry& m = *r.metrics;
  EXPECT_EQ(m.counter(obs::Counter::kChannelTx), r.framesTransmitted);
  EXPECT_EQ(m.counter(obs::Counter::kChannelDelivered), r.framesDelivered);
  EXPECT_EQ(m.counter(obs::Counter::kChannelDropCollision) +
                m.counter(obs::Counter::kChannelDropHalfDuplex),
            r.framesCorrupted);
  EXPECT_EQ(m.counter(obs::Counter::kHelloTx), r.summary.hellosSent);
  EXPECT_GT(m.counter(obs::Counter::kHelloRx), 0U);
  EXPECT_GT(m.counter(obs::Counter::kNeighborJoins), 0U);
  EXPECT_GT(m.gauge(obs::Gauge::kNeighborTableSize), 0U);
  EXPECT_GT(m.histogram(obs::Hist::kMacBackoffSlots).count(), 0U);
  // Scheduler conservation: everything scheduled was executed, cancelled,
  // or still pending at shutdown.
  EXPECT_GE(m.counter(obs::Counter::kSchedulerScheduled),
            m.counter(obs::Counter::kSchedulerExecuted) +
                m.counter(obs::Counter::kSchedulerCancelled));
  // Profiling scopes from runScenario itself.
  EXPECT_EQ(m.scopes().at("scenario.run").calls, 1U);
}

TEST(Differential, EngineAllocCountersShowSteadyStateReuse) {
  // The engine.alloc.* family (DESIGN.md §11): a hello-driven run must reuse
  // event slots (slab count stays tiny) and keep every hot-path callback
  // inside InlineFn's buffer.
  ForcedCollection forced;
  const experiment::RunResult r = experiment::runScenario(helloScenario());
  ASSERT_NE(r.metrics, nullptr);
  const obs::Registry& m = *r.metrics;

  const auto slabs = m.counter(obs::Counter::kEngineAllocEventSlabs);
  const auto reused = m.counter(obs::Counter::kEngineAllocEventReused);
  EXPECT_GT(slabs, 0U);
  EXPECT_GT(reused, 100U * slabs) << "event slots are not being recycled";

  // The capture-size audit in MAC/PHY/net holds at runtime too: no callback
  // scheduled by the engine's hot paths spilled to the heap.
  EXPECT_GT(m.counter(obs::Counter::kEngineAllocCallbackInline), 0U);
  EXPECT_EQ(m.counter(obs::Counter::kEngineAllocCallbackHeap), 0U);
}

TEST(Differential, AirFramePoolReachesSteadyState) {
  // phy::Channel's air-frame pool (DESIGN.md §11.6) on a storm: a 1x1 map
  // where every frame reaches nearly every host. A slot is carved only when
  // every existing one is on the air, so `fresh` is the peak number of
  // concurrent frames — at most one per host — and every later frame
  // recycles a slot.
  ForcedCollection forced;
  experiment::ScenarioConfig c;
  c.mapUnits = 1;
  c.numHosts = 50;
  c.numBroadcasts = 10;
  c.seed = 5;
  const experiment::RunResult r = experiment::runScenario(c);
  ASSERT_NE(r.metrics, nullptr);
  const obs::Registry& m = *r.metrics;
  const auto fresh = m.counter(obs::Counter::kEngineAllocPhyFrameFresh);
  const auto reused = m.counter(obs::Counter::kEngineAllocPhyFrameReused);
  EXPECT_EQ(fresh + reused, r.framesTransmitted);
  EXPECT_GT(fresh, 0U);
  EXPECT_LE(fresh, static_cast<std::uint64_t>(c.numHosts));
  EXPECT_GT(reused, 20U * fresh) << "air-frame slots are not being recycled";
}

// --- thread-count invariance of the merged registry ---

TEST(ThreadInvariance, MergedRegistryJsonIsByteIdenticalAcrossThreadCounts) {
  ForcedCollection forced;
  const experiment::ScenarioConfig config = helloScenario();
  const experiment::RunResult serial =
      experiment::runCells({config}, 4, /*threads=*/1).front();
  const experiment::RunResult parallel =
      experiment::runCells({config}, 4, /*threads=*/4).front();
  ASSERT_NE(serial.metrics, nullptr);
  ASSERT_NE(parallel.metrics, nullptr);
  // The deterministic registry content (wall-clock profile excluded) must
  // serialize to the same bytes: counters, gauges, and histogram float sums
  // merged in repetition order.
  EXPECT_EQ(obs::metricsJson(*serial.metrics, /*includeTiming=*/false),
            obs::metricsJson(*parallel.metrics, /*includeTiming=*/false));
  EXPECT_EQ(serial.seed, parallel.seed);
}

TEST(RunSample, FlattensRunResult) {
  ForcedCollection forced;
  const experiment::RunResult r = experiment::runScenario(tinyScenario());
  const obs::RunSample s = experiment::toRunSample("row/1", r);
  EXPECT_EQ(s.label, "row/1");
  EXPECT_EQ(s.scheme, r.schemeName);
  EXPECT_EQ(s.seed, r.seed);
  EXPECT_EQ(s.re, r.re());
  EXPECT_EQ(s.framesTransmitted, r.framesTransmitted);
  EXPECT_EQ(s.framesPerWallSecond, r.framesPerWallSecond());
  EXPECT_EQ(s.metrics, r.metrics);
}

}  // namespace
}  // namespace manet
