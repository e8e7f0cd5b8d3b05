// Checkpoint/replay subsystem (DESIGN.md §14): blob framing, fingerprint
// round-trips, corruption rejection, the replay-divergence oracle, and the
// resume-equivalence guarantee that backs the CI gate.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/config_io.hpp"
#include "ckpt/fingerprint.hpp"
#include "ckpt/io.hpp"
#include "ckpt/state_access.hpp"
#include "experiment/runner.hpp"
#include "experiment/world.hpp"
#include "sim/time.hpp"

namespace manet::ckpt {
namespace {

using experiment::ScenarioConfig;
using experiment::SchemeSpec;
using experiment::World;

// A small but fully-featured scenario: HELLO-fed adaptive counter, bursty
// link loss, and random churn, so a capture exercises every fingerprint word.
ScenarioConfig smallConfig() {
  ScenarioConfig c;
  c.mapUnits = 3;
  c.numHosts = 30;
  c.numBroadcasts = 10;
  c.neighborSource = experiment::NeighborSource::kHello;
  c.hello.enabled = true;
  c.scheme = SchemeSpec::adaptiveCounter();
  c.fault.loss = fault::FaultConfig::Loss::kGilbertElliott;
  c.fault.churn = true;
  c.fault.churnFraction = 0.2;
  c.seed = 42;
  return c;
}

sim::TimePoint tp(double seconds) {
  return sim::kTimeZero + sim::fromSeconds(seconds);
}

sim::TimePoint midpointOf(const World& world) {
  return tp(sim::toSeconds(world.horizonTime()) * 0.5);
}

// ------------------------------------------------------------ container io

TEST(CkptIo, WriterReaderRoundTripPrimitives) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-1.5e-12);
  w.boolean(true);
  w.time(tp(1.25));
  w.duration(2 * sim::kSecond);
  w.str("hello\0world");

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -1.5e-12);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.time(), tp(1.25));
  EXPECT_EQ(r.duration(), 2 * sim::kSecond);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.atEnd());
}

TEST(CkptIo, ReaderThrowsOnTruncation) {
  Writer w;
  w.u64(7);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  Reader r(bytes);
  EXPECT_THROW(r.u64(), Error);
}

// A small hand-built fingerprint: the blob tests below need a valid blob,
// not a world.
WorldFingerprint tinyFingerprint() {
  WorldFingerprint fp;
  fp.configBlob = {1, 2, 3};
  fp.anchor = tp(1.5);
  fp.horizon = tp(3.0);
  fp.hasRegistry = true;
  fp.words = {11, 12, 13, 14, 15};
  fp.hosts.resize(2);
  fp.hosts[0].words = {1, 2, 3, 4, 5, 6, 7, 8};
  fp.hosts[1].words[HostFingerprint::kMac] = 0xFFFFFFFFFFFFFFFFull;
  return fp;
}

TEST(CkptIo, ContainerRoundTrip) {
  const WorldFingerprint fp = tinyFingerprint();
  const auto blob = encodeFingerprint(fp);
  // magic, version, config (u64 length + bytes), anchor, horizon, flag,
  // world words, host count, host words, checksum: no tags, no sections.
  EXPECT_EQ(blob.size(), kMagicLen + 4 + (8 + 3) + 8 + 8 + 1 +
                             8 * WorldFingerprint::kParts + 8 +
                             2 * 8 * HostFingerprint::kParts + 8);
  EXPECT_EQ(decodeFingerprint(blob), fp);
}

TEST(CkptIo, ContainerRejectsBadMagic) {
  auto blob = encodeFingerprint(tinyFingerprint());
  blob[0] ^= 0xFF;
  EXPECT_THROW(decodeFingerprint(blob), Error);
}

TEST(CkptIo, ContainerRejectsVersionMismatch) {
  auto blob = encodeFingerprint(tinyFingerprint());
  blob[kMagicLen] ^= 0xFF;  // version u32 sits right after the magic
  try {
    decodeFingerprint(blob);
    FAIL() << "version mismatch accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(CkptIo, ContainerDetectsPayloadBitFlip) {
  auto blob = encodeFingerprint(tinyFingerprint());
  blob[blob.size() - 9] ^= 0x01;  // last host word byte (checksum trails it)
  EXPECT_THROW(decodeFingerprint(blob), Error);
}

TEST(CkptIo, ContainerDetectsTruncation) {
  auto blob = encodeFingerprint(tinyFingerprint());
  blob.resize(blob.size() - 3);
  EXPECT_THROW(decodeFingerprint(blob), Error);
}

// --------------------------------------------------------- fingerprints

TEST(CkptFingerprint, CaptureRoundTripAndDiff) {
  // Capture a real mid-run world rather than hand-building every word.
  World world(smallConfig());
  world.beginRun();
  world.continueUntil(midpointOf(world));
  const WorldFingerprint fp = StateAccess::captureWorld(world);
  EXPECT_EQ(fp.hosts.size(), 30u);
  EXPECT_EQ(fp.anchor, midpointOf(world));

  WorldFingerprint decoded = decodeFingerprint(encodeFingerprint(fp));
  EXPECT_EQ(decoded, fp);
  EXPECT_TRUE(diffFingerprints(fp, decoded).empty());

  decoded.hosts[7].words[HostFingerprint::kNeighborTable] ^= 1;
  decoded.words[WorldFingerprint::kScheduler] ^= 1;
  const auto diffs = diffFingerprints(fp, decoded);
  ASSERT_EQ(diffs.size(), 2u);  // one line per mismatched subsystem or host
  EXPECT_EQ(diffs[0], "scheduler differs");
  EXPECT_EQ(diffs[1], "host 7: neighborTable differ(s)");
}

TEST(CkptConfig, ResolvedConfigRoundTripsByteExact) {
  ScenarioConfig c = smallConfig();
  c.fixedPositions = {{0, 0}, {100, 50}, {200, 0}};
  c.scheme = SchemeSpec::counter(3);
  const ScenarioConfig resolved = c.resolved();
  const auto blob = encodeConfig(resolved);
  // No operator== on ScenarioConfig: byte-stability of a re-encode is the
  // equality oracle (and what resume relies on).
  EXPECT_EQ(encodeConfig(decodeConfig(blob)), blob);
}

// ------------------------------------------------- resume equivalence core

TEST(Ckpt, CaptureIsSideEffectFreeAndSplitRunMatchesStraight) {
  const ScenarioConfig config = smallConfig();
  World straight(config);
  straight.run();

  World split(config);
  split.beginRun();
  split.continueUntil(midpointOf(split));
  const auto blob = capture(split);  // mid-run capture must perturb nothing
  EXPECT_FALSE(blob.empty());
  split.runToEnd();

  EXPECT_EQ(StateAccess::captureWorld(split),
            StateAccess::captureWorld(straight));
}

TEST(Ckpt, ResumedTailMatchesStraightThrough) {
  const ScenarioConfig config = smallConfig();
  World straight(config);
  straight.run();

  World prefix(config);
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  const auto blob = capture(prefix);

  Resumed resumed = resume(blob);
  ASSERT_NE(resumed.world, nullptr);
  EXPECT_EQ(resumed.fingerprint.anchor, midpointOf(prefix));
  resumed.world->runToEnd();

  const auto diffs = diffFingerprints(StateAccess::captureWorld(*resumed.world),
                                      StateAccess::captureWorld(straight));
  EXPECT_TRUE(diffs.empty()) << diffs.size() << " subsystem(s) diverged, e.g. "
                             << diffs.front();
}

TEST(Ckpt, ResumeRejectsCorruptedBlob) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  auto blob = capture(prefix);
  blob[blob.size() / 2] ^= 0x10;
  EXPECT_THROW(resume(blob), Error);
}

TEST(Ckpt, ResumeRejectsVersionMismatch) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  auto blob = capture(prefix);
  blob[kMagicLen] += 1;  // pretend a future format version
  try {
    resume(blob);
    FAIL() << "future-version blob accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Ckpt, ResumeRejectsReplayDivergence) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  WorldFingerprint fp = decodeFingerprint(capture(prefix));
  fp.hosts[3].words[HostFingerprint::kMac] ^= 1;
  // Re-encoded, so the checksum holds and only the replay oracle can object.
  try {
    resume(encodeFingerprint(fp));
    FAIL() << "diverged replay accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("replay to the anchor diverged"), std::string::npos);
    EXPECT_NE(what.find("host 3: mac differ(s)"), std::string::npos) << what;
  }
}

TEST(Ckpt, WorldCheckpointFileRoundTrip) {
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.mckpt";
  const ScenarioConfig config = smallConfig();

  World straight(config);
  straight.run();

  World prefix(config);
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  prefix.checkpoint(path);

  std::unique_ptr<World> resumed = World::resume(path);
  ASSERT_NE(resumed, nullptr);
  resumed->runToEnd();
  EXPECT_EQ(StateAccess::captureWorld(*resumed),
            StateAccess::captureWorld(straight));
  std::remove(path.c_str());
}

TEST(Ckpt, ReadBlobFileRejectsMissingAndTruncatedFiles) {
  EXPECT_THROW(readBlobFile(testing::TempDir() + "/no_such_blob.mckpt"),
               Error);
  EXPECT_THROW(readBlobFile(testing::TempDir()), Error);  // a directory

  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  auto blob = capture(prefix);
  blob.resize(blob.size() - 7);
  const std::string path = testing::TempDir() + "/ckpt_truncated.mckpt";
  writeBlobFile(path, blob);
  EXPECT_THROW(resume(readBlobFile(path)), Error);
  std::remove(path.c_str());
}

TEST(Ckpt, RunCheckpointCycleMatchesStraightWorld) {
  const ScenarioConfig config = smallConfig();
  AnchorSpec anchor;
  anchor.fraction = 0.5;
  std::unique_ptr<World> cycled =
      runCheckpointCycle(config, anchor, /*blobDir=*/"", "test");
  ASSERT_NE(cycled, nullptr);

  World reference(config);
  reference.run();
  EXPECT_EQ(StateAccess::captureWorld(*cycled),
            StateAccess::captureWorld(reference));
}

TEST(Ckpt, AveragedSweepIdenticalUnderCycleOverrideAcrossThreads) {
  const ScenarioConfig config = smallConfig();
  const experiment::RunResult straight =
      experiment::runScenarioAveraged(config, 2, /*threads=*/1);

  experiment::setWorldRunOverride([](const ScenarioConfig& c) {
    AnchorSpec anchor;
    anchor.fraction = 0.5;
    return runCheckpointCycle(c, anchor, "", "test");
  });
  const experiment::RunResult cycled1 =
      experiment::runScenarioAveraged(config, 2, /*threads=*/1);
  const experiment::RunResult cycled2 =
      experiment::runScenarioAveraged(config, 2, /*threads=*/2);
  experiment::setWorldRunOverride(nullptr);

  for (const experiment::RunResult* r : {&cycled1, &cycled2}) {
    EXPECT_EQ(r->re(), straight.re());
    EXPECT_EQ(r->srb(), straight.srb());
    EXPECT_EQ(r->latency(), straight.latency());
    EXPECT_EQ(r->summary.broadcasts, straight.summary.broadcasts);
    EXPECT_EQ(r->framesTransmitted, straight.framesTransmitted);
    EXPECT_EQ(r->framesDelivered, straight.framesDelivered);
    EXPECT_EQ(r->framesCorrupted, straight.framesCorrupted);
    EXPECT_EQ(r->framesLostToFault, straight.framesLostToFault);
    EXPECT_EQ(r->offeredBroadcasts, straight.offeredBroadcasts);
    EXPECT_EQ(r->hellosPerHostPerSecond, straight.hellosPerHostPerSecond);
  }
}

TEST(Ckpt, SchemeOverrideTailRunsToHorizon) {
  World prefix(smallConfig());
  prefix.beginRun();
  prefix.continueUntil(midpointOf(prefix));
  const auto blob = capture(prefix);

  Resumed resumed = resume(blob);
  resumed.world->overrideScheme(SchemeSpec::flooding());
  resumed.world->runToEnd();
  const WorldFingerprint end = StateAccess::captureWorld(*resumed.world);
  EXPECT_EQ(end.anchor, resumed.world->horizonTime());
  // The tail ran under the new policy without disturbing in-flight
  // broadcasts; the run still issues every scheduled request.
  EXPECT_EQ(resumed.world->metrics().summarize().broadcasts, 10u);
}

// ---------------------------------------------------------- CLI spec parsing

TEST(CkptSpec, ParseAnchorSpec) {
  const AnchorSpec secs = parseAnchorSpec("12.5");
  EXPECT_DOUBLE_EQ(secs.seconds, 12.5);
  EXPECT_LT(secs.fraction, 0.0);
  EXPECT_TRUE(secs.active());

  const AnchorSpec frac = parseAnchorSpec("50%");
  EXPECT_DOUBLE_EQ(frac.fraction, 0.5);
  EXPECT_LT(frac.seconds, 0.0);

  EXPECT_THROW(parseAnchorSpec(""), Error);
  EXPECT_THROW(parseAnchorSpec("abc"), Error);
  EXPECT_THROW(parseAnchorSpec("150%"), Error);
  EXPECT_THROW(parseAnchorSpec("-3"), Error);
  EXPECT_THROW(parseAnchorSpec("12s"), Error);
  // Non-finite and beyond-int64-microsecond anchors have no TimePoint.
  EXPECT_THROW(parseAnchorSpec("inf"), Error);
  EXPECT_THROW(parseAnchorSpec("1e300"), Error);
  EXPECT_THROW(parseAnchorSpec("nan"), Error);
  EXPECT_THROW(parseAnchorSpec("nan%"), Error);
}

TEST(CkptSpec, ParseSchemeOverride) {
  EXPECT_EQ(parseSchemeOverride("flooding").name(), "flooding");
  EXPECT_EQ(parseSchemeOverride("c=3").name(), SchemeSpec::counter(3).name());
  EXPECT_EQ(parseSchemeOverride("p=0.5").name(),
            SchemeSpec::probabilistic(0.5).name());
  EXPECT_EQ(parseSchemeOverride("d=0").name(), SchemeSpec::distance(0).name());
  EXPECT_EQ(parseSchemeOverride("a=0.1").name(),
            SchemeSpec::location(0.1).name());
  EXPECT_THROW(parseSchemeOverride("bogus"), Error);
  EXPECT_THROW(parseSchemeOverride("c=zero"), Error);
  // Trailing characters.
  EXPECT_THROW(parseSchemeOverride("c=3x"), Error);
  EXPECT_THROW(parseSchemeOverride("p=0.5 "), Error);
  // Out-of-range values fail here, not after a replayed prefix.
  EXPECT_THROW(parseSchemeOverride("c=0"), Error);
  EXPECT_THROW(parseSchemeOverride("p=1.5"), Error);
  EXPECT_THROW(parseSchemeOverride("p=-0.1"), Error);
  EXPECT_THROW(parseSchemeOverride("p=nan"), Error);
  EXPECT_THROW(parseSchemeOverride("d=-1"), Error);
  EXPECT_THROW(parseSchemeOverride("d=inf"), Error);
  EXPECT_THROW(parseSchemeOverride("a=nan"), Error);
}

}  // namespace
}  // namespace manet::ckpt
