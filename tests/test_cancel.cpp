// Unit tests for the deadline/cancellation subsystem (src/common/cancel.h):
// spec grammars, token plumbing, governor causes, the three poll flavours,
// trip/recording test instrumentation, and the RAII scopes.
#include "common/cancel.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/par.h"
#include "core/spectral.h"

namespace fastsc::cancel {
namespace {

class CancelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (governor().armed()) governor().disarm();
    governor().clear_trip();
    governor().set_recording(false);
    governor().reset_for_test();
  }
};

// --- spec grammars ----------------------------------------------------------

TEST_F(CancelTest, RunBudgetParsesBareNumberAsTotalWall) {
  const RunBudget b = RunBudget::parse("250");
  EXPECT_DOUBLE_EQ(b.total.wall_ms, 250);
  EXPECT_DOUBLE_EQ(b.total.virtual_seconds, 0);
  EXPECT_TRUE(b.anytime);
  EXPECT_TRUE(b.enabled());
}

TEST_F(CancelTest, RunBudgetParsesClauses) {
  const RunBudget b = RunBudget::parse(
      "total=1000;total.virtual=0.5;eigensolver=200;"
      "kmeans.virtual=0.01;anytime=0");
  EXPECT_DOUBLE_EQ(b.total.wall_ms, 1000);
  EXPECT_DOUBLE_EQ(b.total.virtual_seconds, 0.5);
  ASSERT_TRUE(b.stages.contains(core::kStageEigensolver));
  EXPECT_DOUBLE_EQ(b.stages.at(core::kStageEigensolver).wall_ms, 200);
  ASSERT_TRUE(b.stages.contains(core::kStageKmeans));
  EXPECT_DOUBLE_EQ(b.stages.at(core::kStageKmeans).virtual_seconds, 0.01);
  EXPECT_FALSE(b.anytime);
}

TEST_F(CancelTest, RunBudgetToStringRoundTrips) {
  const RunBudget b = RunBudget::parse(
      "total=128;similarity=32;eigensolver.virtual=0.25;anytime=0");
  const RunBudget back = RunBudget::parse(b.to_string());
  EXPECT_DOUBLE_EQ(back.total.wall_ms, b.total.wall_ms);
  EXPECT_EQ(back.anytime, b.anytime);
  ASSERT_TRUE(back.stages.contains(core::kStageSimilarity));
  EXPECT_DOUBLE_EQ(back.stages.at(core::kStageSimilarity).wall_ms, 32);
  ASSERT_TRUE(back.stages.contains(core::kStageEigensolver));
  EXPECT_DOUBLE_EQ(
      back.stages.at(core::kStageEigensolver).virtual_seconds, 0.25);
}

TEST_F(CancelTest, RunBudgetRejectsBadSpecs) {
  EXPECT_THROW((void)RunBudget::parse("bogus_stage=5"), std::invalid_argument);
  EXPECT_THROW((void)RunBudget::parse("total=abc"), std::invalid_argument);
  EXPECT_THROW((void)RunBudget::parse("total=-3"), std::invalid_argument);
  EXPECT_THROW((void)RunBudget::parse("nonsense"), std::invalid_argument);
}

TEST_F(CancelTest, EmptyBudgetIsDisabled) {
  EXPECT_FALSE(RunBudget{}.enabled());
  EXPECT_FALSE(RunBudget::parse("").enabled());
}

TEST_F(CancelTest, WatchdogConfigParsesAndRoundTrips) {
  const WatchdogConfig w = WatchdogConfig::parse(
      "stall_restarts=5,stall_rtol=0.01,heartbeat_ms=100,"
      "transfer_overrun=8;poll_ms=2");
  EXPECT_EQ(w.stall_restarts, 5);
  EXPECT_DOUBLE_EQ(w.stall_rtol, 0.01);
  EXPECT_DOUBLE_EQ(w.heartbeat_timeout_ms, 100);
  EXPECT_DOUBLE_EQ(w.transfer_overrun_factor, 8);
  EXPECT_DOUBLE_EQ(w.poll_interval_ms, 2);
  EXPECT_TRUE(w.enabled());
  const WatchdogConfig back = WatchdogConfig::parse(w.to_string());
  EXPECT_EQ(back.stall_restarts, w.stall_restarts);
  EXPECT_DOUBLE_EQ(back.heartbeat_timeout_ms, w.heartbeat_timeout_ms);
  EXPECT_DOUBLE_EQ(back.transfer_overrun_factor, w.transfer_overrun_factor);
}

TEST_F(CancelTest, WatchdogConfigRejectsBadSpecs) {
  EXPECT_THROW((void)WatchdogConfig::parse("no_such_key=1"),
               std::invalid_argument);
  EXPECT_THROW((void)WatchdogConfig::parse("poll_ms=0"),
               std::invalid_argument);
  EXPECT_FALSE(WatchdogConfig{}.enabled());
}

// --- token ------------------------------------------------------------------

TEST_F(CancelTest, DefaultTokenNeverReportsCancellation) {
  CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
}

TEST_F(CancelTest, SourcePropagatesToAllTokenCopies) {
  CancelSource src;
  CancelToken a = src.token();
  CancelToken b = a;  // copies share state
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.cancelled());
  src.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(src.cancelled());
}

// --- CancelledError ---------------------------------------------------------

TEST_F(CancelTest, CancelledErrorSiteAnnotationIsFirstWins) {
  CancelledError e("run cancelled: test");
  EXPECT_TRUE(e.site().empty());
  e.annotate_site("cg.iteration");
  e.annotate_site("stream.queue");  // ignored: first annotation wins
  EXPECT_EQ(e.site(), "cg.iteration");
  EXPECT_NE(std::string(e.what()).find("[site: cg.iteration]"),
            std::string::npos);
}

// --- governor: disarmed fast path -------------------------------------------

TEST_F(CancelTest, DisarmedPollSitesAreNoOps) {
  EXPECT_FALSE(governor().armed());
  EXPECT_NO_THROW(poll("x"));
  EXPECT_FALSE(pending("x"));
  EXPECT_FALSE(expired("x"));
  EXPECT_FALSE(interrupted("x"));
  EXPECT_NO_THROW(note_progress(1.0));
  EXPECT_NO_THROW(heartbeat());
}

// --- governor: external token (hard cancellation) ---------------------------

TEST_F(CancelTest, ExternalTokenCancelsAtNextPoll) {
  CancelSource src;
  governor().arm(RunBudget{}, WatchdogConfig{}, src.token(), nullptr);
  EXPECT_NO_THROW(poll("warmup"));
  src.request_cancel();
  // Hard cause: all flavours report it, expired() throws instead of
  // returning a soft deadline.
  EXPECT_TRUE(pending("site.a"));
  EXPECT_TRUE(interrupted("site.a"));
  EXPECT_THROW((void)expired("site.a"), CancelledError);
  try {
    poll("site.b");
    FAIL() << "poll should throw after external cancellation";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.site(), "site.b");
  }
  const BudgetReport r = governor().report();
  EXPECT_TRUE(r.enabled);
  EXPECT_FALSE(r.expired);
  EXPECT_FALSE(r.anytime);
  EXPECT_EQ(r.reason, "external");
  // First poll that observed the cancellation is the recorded site.
  EXPECT_EQ(r.cancel_site, "site.a");
}

TEST_F(CancelTest, RequestCancelFiresManually) {
  governor().arm(RunBudget{}, WatchdogConfig{}, CancelToken{}, nullptr);
  EXPECT_FALSE(governor().cancel_requested());
  governor().request_cancel("user hit ^C");
  EXPECT_TRUE(governor().cancel_requested());
  EXPECT_THROW(poll("any"), CancelledError);
  EXPECT_EQ(governor().report().reason, "user hit ^C");
}

// --- governor: virtual budgets (deterministic expiry) ------------------------

TEST_F(CancelTest, VirtualBudgetExpiresSoftlyWhenAnytime) {
  double vclock = 0;
  RunBudget b = RunBudget::parse("total.virtual=1.0;anytime=1");
  governor().arm(b, WatchdogConfig{}, CancelToken{}, [&] { return vclock; });
  governor().begin_stage(core::kStageEigensolver);
  EXPECT_FALSE(expired("lanczos.matvec"));
  vclock = 2.0;  // past the limit on the deterministic virtual timeline
  // Soft expiry: expired() is true, the parallel-chunk check stays false so
  // in-flight primitives complete, pending() tells workers to stop.
  EXPECT_TRUE(expired("lanczos.matvec"));
  EXPECT_FALSE(interrupted("par.chunk"));
  EXPECT_TRUE(pending("stream.queue"));
  EXPECT_TRUE(governor().anytime_allowed());
  const BudgetReport r = governor().report();
  EXPECT_TRUE(r.expired);
  EXPECT_EQ(r.reason, "budget.total.virtual");
  EXPECT_EQ(r.expired_stage, core::kStageEigensolver);
}

TEST_F(CancelTest, VirtualBudgetThrowsWhenAnytimeDisabled) {
  double vclock = 0;
  RunBudget b = RunBudget::parse("total.virtual=1.0;anytime=0");
  governor().arm(b, WatchdogConfig{}, CancelToken{}, [&] { return vclock; });
  vclock = 5.0;
  EXPECT_TRUE(interrupted("par.chunk"));  // hard: tear down parallel work too
  EXPECT_THROW((void)expired("kmeans.sweep"), CancelledError);
  EXPECT_FALSE(governor().anytime_allowed());
}

TEST_F(CancelTest, PerStageVirtualBudgetOnlyChargesItsStage) {
  double vclock = 0;
  RunBudget b = RunBudget::parse("eigensolver.virtual=1.0");
  governor().arm(b, WatchdogConfig{}, CancelToken{}, [&] { return vclock; });
  governor().begin_stage(core::kStageSimilarity);
  vclock = 3.0;  // similarity may burn virtual time freely
  EXPECT_FALSE(expired("similarity.chunk"));
  governor().end_stage();
  governor().begin_stage(core::kStageEigensolver);
  EXPECT_FALSE(expired("lanczos.matvec"));  // stage spend restarts at 0
  vclock = 3.5;
  EXPECT_FALSE(expired("lanczos.matvec"));  // 0.5 spent, limit 1.0
  vclock = 4.5;
  EXPECT_TRUE(expired("lanczos.matvec"));
  const BudgetReport r = governor().report();
  EXPECT_EQ(r.reason, "budget.eigensolver.virtual");
  EXPECT_EQ(r.expired_stage, core::kStageEigensolver);
}

TEST_F(CancelTest, WrapupSilencesAllPollSites) {
  double vclock = 0;
  governor().arm(RunBudget::parse("total.virtual=1.0"), WatchdogConfig{},
                 CancelToken{}, [&] { return vclock; });
  vclock = 2.0;
  EXPECT_TRUE(expired("lanczos.matvec"));
  governor().begin_wrapup("test wrapup");
  EXPECT_TRUE(governor().wrapup_active());
  // Wrap-up must be able to run the rest of the pipeline unimpeded.
  EXPECT_NO_THROW(poll("kmeans.sweep"));
  EXPECT_FALSE(pending("stream.queue"));
  EXPECT_FALSE(expired("kmeans.sweep"));
  EXPECT_FALSE(interrupted("par.chunk"));
  EXPECT_TRUE(governor().report().anytime);
}

// --- governor: stage accounting ---------------------------------------------

TEST_F(CancelTest, ReportAccumulatesStageSpend) {
  double vclock = 0;
  RunBudget b = RunBudget::parse("kmeans=500");
  governor().arm(b, WatchdogConfig{}, CancelToken{}, [&] { return vclock; });
  governor().begin_stage(core::kStageSimilarity);
  vclock = 0.25;
  governor().end_stage();
  governor().begin_stage(core::kStageKmeans);
  const BudgetReport r = governor().report();
  ASSERT_EQ(r.stages.size(), 2u);
  EXPECT_EQ(r.stages[0].stage, core::kStageSimilarity);
  EXPECT_DOUBLE_EQ(r.stages[0].virtual_spent_seconds, 0.25);
  EXPECT_EQ(r.stages[1].stage, core::kStageKmeans);
  EXPECT_DOUBLE_EQ(r.stages[1].wall_ms_limit, 500);
}

// --- governor: watchdog heuristics ------------------------------------------

TEST_F(CancelTest, StallWatchdogFiresAfterFlatRestarts) {
  WatchdogConfig w;
  w.stall_restarts = 3;
  w.stall_rtol = 1e-3;
  governor().arm(RunBudget{}, w, CancelToken{}, nullptr);
  note_progress(1.0);     // baseline
  note_progress(0.5);     // improving: resets the stall count
  note_progress(0.4999);  // < 0.1% better: flat x1
  note_progress(0.4999);  // flat x2
  EXPECT_FALSE(governor().cancel_requested());
  note_progress(0.4999);  // flat x3 -> fire
  EXPECT_TRUE(governor().cancel_requested());
  const BudgetReport r = governor().report();
  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_NE(r.reason.find("watchdog.stall"), std::string::npos);
  // Watchdog + anytime budget default: partial results are allowed.
  EXPECT_TRUE(governor().anytime_allowed());
}

TEST_F(CancelTest, TransferOverrunWatchdogFires) {
  WatchdogConfig w;
  w.transfer_overrun_factor = 4;
  governor().arm(RunBudget{}, w, CancelToken{}, nullptr);
  note_transfer("copy.h2d", /*measured=*/1e-3, /*modeled=*/1e-3);
  EXPECT_FALSE(governor().cancel_requested());
  note_transfer("copy.h2d", /*measured=*/5e-3, /*modeled=*/1e-3);
  EXPECT_TRUE(governor().cancel_requested());
  EXPECT_NE(governor().report().reason.find("watchdog.transfer_overrun"),
            std::string::npos);
}

TEST_F(CancelTest, HeartbeatWatchdogFiresOnStaleBusyDevices) {
  WatchdogConfig w;
  w.heartbeat_timeout_ms = 30;
  w.poll_interval_ms = 5;
  governor().arm(RunBudget{}, w, CancelToken{}, nullptr);
  device_busy(true);  // a kernel launch "starts" and never heartbeats again
  for (int i = 0; i < 200 && !governor().cancel_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  device_busy(false);
  EXPECT_TRUE(governor().cancel_requested());
  EXPECT_EQ(governor().report().reason, "watchdog.heartbeat");
}

// --- test instrumentation: recording + trips --------------------------------

TEST_F(CancelTest, RecordingDiscoversPollSites) {
  governor().set_recording(true);
  poll("a.one");
  (void)pending("b.two");
  (void)expired("c.three");
  (void)interrupted("d.four");
  governor().set_recording(false);
  const std::vector<std::string> sites = governor().sites_seen();
  EXPECT_EQ(sites,
            (std::vector<std::string>{"a.one", "b.two", "c.three", "d.four"}));
}

TEST_F(CancelTest, TripFiresAtExactNthVisit) {
  governor().set_trip("cg.iteration", 3);
  EXPECT_NO_THROW(poll("cg.iteration"));
  EXPECT_NO_THROW(poll("cg.iteration"));
  EXPECT_NO_THROW(poll("other.site"));
  EXPECT_THROW(poll("cg.iteration"), CancelledError);
  // A trip is a hard cancellation: later polls keep throwing and the
  // after-fire counter measures work done past the cancellation point.
  EXPECT_TRUE(interrupted("par.chunk"));
  EXPECT_THROW(poll("cg.iteration"), CancelledError);
  EXPECT_GE(governor().polls_after_fire(), 2u);
  governor().clear_trip();
  governor().reset_for_test();
  EXPECT_EQ(governor().polls_after_fire(), 0u);
  EXPECT_NO_THROW(poll("cg.iteration"));
}

// --- parallel primitives: all-or-throw chunk cancellation --------------------

TEST_F(CancelTest, ParallelForThrowsOnHardCancellationAtChunkBoundary) {
  // Span several cancel strides so workers actually hit the chunk check.
  const index_t n = 4 * 4096 * static_cast<index_t>(
                                   default_thread_pool().worker_count());
  std::vector<int> out(static_cast<usize>(n), 0);
  governor().set_trip("par.chunk", 1);
  EXPECT_THROW(
      parallel_for(index_t{0}, n, [&](index_t i) { out[static_cast<usize>(i)] = 1; }),
      CancelledError);
  governor().clear_trip();
  governor().reset_for_test();
}

TEST_F(CancelTest, ParallelForCompletesThroughSoftExpiry) {
  // A soft (anytime) budget expiry must NOT tear a parallel primitive:
  // workers keep going and the deadline surfaces at the caller's next
  // algorithm boundary instead.
  double vclock = 0;
  governor().arm(RunBudget::parse("total.virtual=1.0"), WatchdogConfig{},
                 CancelToken{}, [&] { return vclock; });
  vclock = 2.0;  // expired before the loop even starts
  const index_t n = 4 * 4096 * static_cast<index_t>(
                                   default_thread_pool().worker_count());
  std::vector<int> out(static_cast<usize>(n), 0);
  EXPECT_NO_THROW(parallel_for(
      index_t{0}, n, [&](index_t i) { out[static_cast<usize>(i)] = 1; }));
  for (index_t i = 0; i < n; i += 4096) {
    ASSERT_EQ(out[static_cast<usize>(i)], 1) << "torn output at " << i;
  }
  EXPECT_TRUE(expired("after.loop"));  // deadline still visible to the caller
}

// --- RAII scopes ------------------------------------------------------------

TEST_F(CancelTest, RunScopeArmsAndDisarms) {
  {
    RunScope scope(RunBudget::parse("50000"), WatchdogConfig{}, CancelToken{},
                   nullptr);
    EXPECT_TRUE(scope.armed_here());
    EXPECT_TRUE(governor().armed());
  }
  EXPECT_FALSE(governor().armed());
}

TEST_F(CancelTest, NestedRunScopeIsNoOp) {
  RunScope outer(RunBudget::parse("50000"), WatchdogConfig{}, CancelToken{},
                 nullptr);
  EXPECT_TRUE(outer.armed_here());
  {
    RunScope inner(RunBudget::parse("1"), WatchdogConfig{}, CancelToken{},
                   nullptr);
    EXPECT_FALSE(inner.armed_here());
    EXPECT_TRUE(governor().armed());
  }
  // Inner scope exit must not disarm the outer run's budget.
  EXPECT_TRUE(governor().armed());
  EXPECT_DOUBLE_EQ(governor().report().total_wall_ms_limit, 50000);
}

TEST_F(CancelTest, DoubleArmThrows) {
  governor().arm(RunBudget{}, WatchdogConfig{}, CancelToken{}, nullptr);
  EXPECT_THROW(
      governor().arm(RunBudget{}, WatchdogConfig{}, CancelToken{}, nullptr),
      std::logic_error);
}

TEST_F(CancelTest, ResetForTestRequiresDisarmed) {
  governor().arm(RunBudget{}, WatchdogConfig{}, CancelToken{}, nullptr);
  EXPECT_THROW(governor().reset_for_test(), std::logic_error);
}

TEST_F(CancelTest, StageScopeIsNoOpWhenIdle) {
  EXPECT_NO_THROW({ StageScope s(core::kStageKmeans); });
  EXPECT_TRUE(governor().report().stages.empty());
}

}  // namespace
}  // namespace fastsc::cancel
