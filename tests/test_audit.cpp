// Invariant auditor: every checker class fires on a corrupted event
// sequence and stays silent on legal ones (DESIGN.md §9). Checkers are
// always compiled, so these tests run in every build configuration; only
// the engine hooks are gated behind -DMANET_AUDIT=ON.
#include "audit/invariants.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "audit/audit.hpp"
#include "experiment/world.hpp"

namespace manet::audit {
namespace {

// Shorthand constructors for the strong types (the hooks are exercised with
// bare literals throughout).
constexpr sim::TimePoint T(std::int64_t ticks) { return sim::TimePoint{ticks}; }
constexpr net::HostId N(std::uint32_t id) { return net::HostId{id}; }

// --- sink machinery ---------------------------------------------------------

TEST(AuditSink, CountingSinkCapturesAndRestores) {
  Sink* before = currentSink();
  {
    ScopedCountingSink sink;
    EXPECT_EQ(currentSink(), &sink);
    report({"test.synthetic", T(7), N(3), "detail"});
    EXPECT_EQ(sink.count(), 1u);
    EXPECT_STREQ(sink.last().invariant, "test.synthetic");
    EXPECT_EQ(sink.last().at, T(7));
    EXPECT_EQ(sink.last().node, N(3));
    EXPECT_EQ(sink.last().detail, "detail");
  }
  EXPECT_EQ(currentSink(), before);
}

TEST(AuditSink, ThreadCounterTracksReports) {
  ScopedCountingSink sink;
  resetViolationCount();
  report({"test.synthetic", T(0), net::kInvalidHost, ""});
  report({"test.synthetic", T(0), net::kInvalidHost, ""});
  EXPECT_EQ(violationCount(), 2u);
  resetViolationCount();
  EXPECT_EQ(violationCount(), 0u);
}

// --- scheduler --------------------------------------------------------------

TEST(SchedulerAuditTest, LegalSequenceIsSilent) {
  ScopedCountingSink sink;
  SchedulerAudit audit;
  audit.onSchedule(T(10), T(0));
  audit.onSchedule(T(10), T(10));  // zero-delay self-schedule is legal
  audit.onPop(T(10));
  audit.onPop(T(10));  // FIFO ties pop at the same timestamp
  audit.onPop(T(25));
  audit.onCancel(T(30), T(25));
  audit.onCancel(T(25), T(25));  // same-timestamp inhibition (paper step S5)
  EXPECT_EQ(sink.count(), 0u);
}

TEST(SchedulerAuditTest, ScheduleInPastFires) {
  ScopedCountingSink sink;
  SchedulerAudit audit;
  audit.onSchedule(T(99), T(100));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "scheduler.schedule-in-past");
  EXPECT_EQ(sink.last().at, T(100));
}

TEST(SchedulerAuditTest, NonMonotonicPopFires) {
  ScopedCountingSink sink;
  SchedulerAudit audit;
  audit.onPop(T(50));
  audit.onPop(T(49));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "scheduler.monotonic-pop");
}

TEST(SchedulerAuditTest, CancelOfPastEventFires) {
  ScopedCountingSink sink;
  SchedulerAudit audit;
  audit.onCancel(T(10), T(20));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "scheduler.cancel-past-event");
}

TEST(SchedulerAuditTest, MatchingLiveAndResidentCountsAreSilent) {
  ScopedCountingSink sink;
  SchedulerAudit audit;
  audit.onCount(0, 0, 0, T(10));
  audit.onCount(17, 17, 0, T(20));
  audit.onCount(17, 5, 12, T(30));  // heap plus live lane entries
  EXPECT_EQ(sink.count(), 0u);
}

TEST(SchedulerAuditTest, CountDriftFires) {
  // The slab scheduler's cross-check: the redundant live counter must equal
  // the heap-resident count plus the live lane entries after every pop and
  // cancel. Drift means a dead entry survived in the heap, a cancelled lane
  // entry was still counted live (or a live one was dropped).
  ScopedCountingSink sink;
  SchedulerAudit audit;
  audit.onCount(3, 4, 0, T(55));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "scheduler.count-drift");
  EXPECT_EQ(sink.last().at, T(55));
  audit.onCount(3, 2, 2, T(60));
  EXPECT_EQ(sink.count(), 2u);
}

// --- channel ----------------------------------------------------------------

TEST(ChannelAuditTest, BalancedTrafficIsSilent) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onBeginReception(N(1), T(0));
  audit.onBeginReception(N(1), T(5));  // overlapping receptions are normal
  audit.onEnergyRaise(N(1), T(0));
  audit.onEndReception(N(1), T(40));
  audit.onEndReception(N(1), T(45));
  audit.onEnergyLower(N(1), T(40));
  audit.atTeardown(0, T(100));
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(audit.begins(), 2u);
  EXPECT_EQ(audit.ends(), 2u);
}

TEST(ChannelAuditTest, ReceptionUnderflowFires) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onEndReception(N(4), T(10));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "channel.reception-underflow");
  EXPECT_EQ(sink.last().node, N(4));
}

TEST(ChannelAuditTest, EnergyUnderflowFires) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onEnergyRaise(N(2), T(0));
  audit.onEnergyLower(N(2), T(10));
  audit.onEnergyLower(N(2), T(11));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "channel.energy-underflow");
}

TEST(ChannelAuditTest, HostDownFlushMatchingInFlightIsSilent) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onBeginReception(N(3), T(0));
  audit.onBeginReception(N(3), T(1));
  audit.onHostDown(N(3), 2, T(50));  // both in-flight receptions flushed
  audit.atTeardown(0, T(100));    // begins(2) == ends(0) + flushes(2)
  EXPECT_EQ(sink.count(), 0u);
}

TEST(ChannelAuditTest, HostDownFlushMismatchFires) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onBeginReception(N(3), T(0));
  audit.onHostDown(N(3), 2, T(50));  // claims two flushed, only one in flight
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "channel.flush-mismatch");
}

TEST(ChannelAuditTest, DeliveryWhileDownFires) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onDeliveryWhileDown(N(9), T(33));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "channel.down-node-delivery");
}

TEST(ChannelAuditTest, TeardownImbalanceFires) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onBeginReception(N(0), T(0));
  audit.atTeardown(0, T(100));  // one begin never ended, flushed, or in flight
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "channel.teardown-balance");
}

TEST(ChannelAuditTest, TeardownMidFrameIsLegal) {
  ScopedCountingSink sink;
  ChannelAudit audit;
  audit.onBeginReception(N(0), T(0));
  audit.atTeardown(1, T(100));  // run stopped with the frame still on the air
  EXPECT_EQ(sink.count(), 0u);
}

// --- DCF MAC ----------------------------------------------------------------

TEST(DcfAuditTest, LegalBroadcastFlowIsSilent) {
  ScopedCountingSink sink;
  DcfAudit audit(N(7));
  // Back-to-back broadcasts: one frame on the air at a time.
  audit.onTxStart(T(10));
  audit.onTxEnd(T(20));
  audit.onTxStart(T(30));
  audit.onTxEnd(T(35));
  EXPECT_EQ(sink.count(), 0u);
}

TEST(DcfAuditTest, OverlappingTransmissionsFire) {
  ScopedCountingSink sink;
  DcfAudit audit(N(7));
  audit.onTxStart(T(10));
  audit.onTxStart(T(12));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "mac.onair-overlap");
  EXPECT_EQ(sink.last().node, N(7));
}

TEST(DcfAuditTest, EndWithNothingOnAirFires) {
  ScopedCountingSink sink;
  DcfAudit audit(N(7));
  audit.onTxEnd(T(10));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "mac.onair-underflow");
}

TEST(DcfAuditTest, ResetForcesIdleLegally) {
  ScopedCountingSink sink;
  DcfAudit audit(N(7));
  audit.onTxStart(T(10));
  audit.onReset();  // crash mid-frame: the station is forced idle
  audit.onTxStart(T(20));
  audit.onTxEnd(T(25));
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_FALSE(audit.onAir());
}

// --- neighbor table ---------------------------------------------------------

TEST(NeighborAuditTest, OrderedPurgesAndTrueExpiriesAreSilent) {
  ScopedCountingSink sink;
  NeighborAudit audit(N(5));
  audit.onPurge(T(100));
  audit.onPurge(T(100));  // same-time re-purge is legal
  audit.onPurge(T(200));
  audit.onExpire(T(150), T(200));  // deadline strictly past
  EXPECT_EQ(sink.count(), 0u);
}

TEST(NeighborAuditTest, PurgeTimeGoingBackwardsFires) {
  ScopedCountingSink sink;
  NeighborAudit audit(N(5));
  audit.onPurge(T(200));
  audit.onPurge(T(199));
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "neighbor.purge-order");
}

TEST(NeighborAuditTest, PrematureExpiryFires) {
  ScopedCountingSink sink;
  NeighborAudit audit(N(5));
  audit.onExpire(T(200), T(200));  // deadline not yet strictly past
  ASSERT_EQ(sink.count(), 1u);
  EXPECT_STREQ(sink.last().invariant, "neighbor.premature-expiry");
}

TEST(NeighborAuditTest, ClearForgetsThePurgeClock) {
  ScopedCountingSink sink;
  NeighborAudit audit(N(5));
  audit.onPurge(T(500));
  audit.onClear();    // crash reset
  audit.onPurge(T(10));  // a recovered host restarts from an earlier clock? No —
                      // sim time never rewinds, but a *fresh table object*
                      // (new run on this thread) legitimately starts over.
  EXPECT_EQ(sink.count(), 0u);
}

// --- churn ------------------------------------------------------------------

TEST(ChurnAuditTest, CompleteResetIsSilent) {
  ScopedCountingSink sink;
  ChurnAudit{}.onCrashReset(N(3), true, true, true, T(40));
  EXPECT_EQ(sink.count(), 0u);
}

TEST(ChurnAuditTest, AnyResidueFires) {
  ScopedCountingSink sink;
  ChurnAudit{}.onCrashReset(N(3), false, true, true, T(40));
  ChurnAudit{}.onCrashReset(N(3), true, false, true, T(41));
  ChurnAudit{}.onCrashReset(N(3), true, true, false, T(42));
  ASSERT_EQ(sink.count(), 3u);
  EXPECT_STREQ(sink.last().invariant, "churn.crash-reset-incomplete");
  EXPECT_NE(sink.last().detail.find("neighbor-table"), std::string::npos);
}

// --- end to end -------------------------------------------------------------

// A healthy run reports nothing: with -DMANET_AUDIT=ON every engine hook is
// live and must stay silent; with auditing off the hooks compile away and
// silence is trivial. Either way the golden scenario must not trip the sink.
TEST(AuditEndToEnd, SeedScenarioRunsWithoutViolations) {
  ScopedCountingSink sink;
  resetViolationCount();
  {
    experiment::ScenarioConfig c;
    c.numHosts = 20;
    c.numBroadcasts = 10;
    c.seed = 42;
    experiment::World w(c);
    w.run();
  }  // world teardown runs the channel ledger check under MANET_AUDIT
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(violationCount(), 0u);
}

TEST(AuditEndToEnd, ChurnScenarioRunsWithoutViolations) {
  ScopedCountingSink sink;
  {
    experiment::ScenarioConfig c;
    c.numHosts = 20;
    c.numBroadcasts = 10;
    c.seed = 7;
    c.fault.churn = true;
    c.fault.churnFraction = 0.4;
    experiment::World w(c);
    w.run();
  }
  EXPECT_EQ(sink.count(), 0u);
}

}  // namespace
}  // namespace manet::audit
