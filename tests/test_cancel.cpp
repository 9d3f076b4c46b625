// Unit tests for the deadline/cancellation subsystem (src/common/cancel.h):
// token plumbing, governor causes, the three poll flavours, the wall
// deadline, trip/recording test instrumentation, and the RAII scope.
#include "common/cancel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/par.h"

namespace fastsc::cancel {
namespace {

/// A deadline far beyond any test: it arms the governor without firing, so
/// trips act as the deadline.
RunBudget armed_budget(bool anytime = true) {
  RunBudget b;
  b.wall_ms = 1e9;
  b.anytime = anytime;
  return b;
}

class CancelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (governor().armed()) governor().disarm();
    governor().clear_trip();
    governor().set_recording(false);
    governor().reset_for_test();
  }
};

TEST_F(CancelTest, EmptyBudgetIsDisabled) {
  EXPECT_FALSE(RunBudget{}.enabled());
  EXPECT_TRUE(armed_budget().enabled());
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
  e.annotate_site("similarity.chunk");
  e.annotate_site("kmeans.sweep");  // ignored: first annotation wins
  EXPECT_EQ(e.site(), "similarity.chunk");
  EXPECT_NE(std::string(e.what()).find("[site: similarity.chunk]"),
            std::string::npos);
}

// --- governor: disarmed fast path -------------------------------------------

TEST_F(CancelTest, DisarmedPollSitesAreNoOps) {
  EXPECT_FALSE(governor().armed());
  EXPECT_NO_THROW(poll("x"));
  EXPECT_FALSE(expired("x"));
  EXPECT_FALSE(interrupted("x"));
}

// --- governor: external token (hard cancellation) ---------------------------

TEST_F(CancelTest, ExternalTokenCancelsAtNextPoll) {
  CancelSource src;
  governor().arm(RunBudget{}, src.token());
  EXPECT_NO_THROW(poll("warmup"));
  src.request_cancel();
  // Hard cause: all flavours report it, expired() throws instead of
  // returning a soft deadline.
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

// --- governor: the deadline (a trip on an armed run) ------------------------

TEST_F(CancelTest, VirtualBudgetExpiresSoftlyWhenAnytime) {
  governor().arm(armed_budget(), CancelToken{});
  governor().set_trip("lanczos.matvec", 2);
  EXPECT_FALSE(expired("lanczos.matvec"));
  // The second visit fires the deadline.  Soft expiry: expired() is true,
  // the parallel-chunk check stays false so in-flight primitives complete.
  EXPECT_TRUE(expired("lanczos.matvec"));
  EXPECT_FALSE(interrupted("par.chunk"));
  EXPECT_TRUE(governor().anytime_allowed());
  const BudgetReport r = governor().report();
  EXPECT_TRUE(r.expired);
  EXPECT_EQ(r.reason, "trip:lanczos.matvec");
  EXPECT_EQ(r.cancel_site, "lanczos.matvec");
}

TEST_F(CancelTest, VirtualBudgetThrowsWhenAnytimeDisabled) {
  governor().arm(armed_budget(/*anytime=*/false), CancelToken{});
  governor().set_trip("par.chunk", 1);
  EXPECT_TRUE(interrupted("par.chunk"));  // hard: tear down parallel work too
  EXPECT_THROW((void)expired("kmeans.sweep"), CancelledError);
  EXPECT_FALSE(governor().anytime_allowed());
  EXPECT_TRUE(governor().report().expired);
}

TEST_F(CancelTest, WallDeadlineExpiresAtNextPoll) {
  RunBudget b;
  b.wall_ms = 1;
  governor().arm(b, CancelToken{});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Nothing watches the clock between polls; this poll finds it past due.
  EXPECT_TRUE(expired("kmeans.sweep"));
  BudgetReport r = governor().report();
  EXPECT_TRUE(r.expired);
  EXPECT_EQ(r.reason, "budget.wall");
  EXPECT_DOUBLE_EQ(r.total_wall_ms_limit, 1);
  EXPECT_GE(r.total_wall_ms_spent, 5);
  governor().disarm();

  b.anytime = false;
  governor().arm(b, CancelToken{});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW(poll("lanczos.matvec"), CancelledError);
  EXPECT_FALSE(governor().anytime_allowed());
}

TEST_F(CancelTest, WrapupSilencesAllPollSites) {
  governor().arm(armed_budget(), CancelToken{});
  governor().set_trip("lanczos.matvec", 1);
  EXPECT_TRUE(expired("lanczos.matvec"));
  EXPECT_FALSE(governor().report().anytime);
  governor().begin_wrapup("test wrapup");
  // Wrap-up must be able to run the rest of the pipeline unimpeded.
  EXPECT_NO_THROW(poll("kmeans.sweep"));
  EXPECT_FALSE(expired("kmeans.sweep"));
  EXPECT_FALSE(interrupted("par.chunk"));
  EXPECT_TRUE(governor().report().anytime);
}

// --- test instrumentation: recording + trips --------------------------------

TEST_F(CancelTest, RecordingDiscoversPollSites) {
  governor().set_recording(true);
  poll("a.one");
  poll("b.two");
  (void)expired("c.three");
  (void)interrupted("d.four");
  governor().set_recording(false);
  const std::vector<std::string> sites = governor().sites_seen();
  EXPECT_EQ(sites,
            (std::vector<std::string>{"a.one", "b.two", "c.three", "d.four"}));
}

TEST_F(CancelTest, TripFiresAtExactNthVisit) {
  governor().set_trip("similarity.chunk", 3);
  EXPECT_NO_THROW(poll("similarity.chunk"));
  EXPECT_NO_THROW(poll("similarity.chunk"));
  EXPECT_NO_THROW(poll("other.site"));
  EXPECT_THROW(poll("similarity.chunk"), CancelledError);
  // A trip on a disarmed governor is a hard cancellation: later polls keep
  // throwing and the after-fire counter measures work done past the
  // cancellation point.
  EXPECT_TRUE(interrupted("par.chunk"));
  EXPECT_THROW(poll("similarity.chunk"), CancelledError);
  EXPECT_GE(governor().polls_after_fire(), 2u);
  governor().clear_trip();
  governor().reset_for_test();
  EXPECT_EQ(governor().polls_after_fire(), 0u);
  EXPECT_NO_THROW(poll("similarity.chunk"));
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
  // A soft (anytime) deadline that fires inside a parallel primitive must
  // NOT tear it: workers keep going and the deadline surfaces at the
  // caller's next algorithm boundary instead.
  governor().arm(armed_budget(), CancelToken{});
  governor().set_trip("par.chunk", 1);
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

// --- RAII scope -------------------------------------------------------------

TEST_F(CancelTest, RunScopeArmsAndDisarms) {
  {
    RunScope scope(armed_budget(), CancelToken{});
    EXPECT_TRUE(scope.armed_here());
    EXPECT_TRUE(governor().armed());
  }
  EXPECT_FALSE(governor().armed());
}

TEST_F(CancelTest, NestedRunScopeIsNoOp) {
  RunBudget outer_budget;
  outer_budget.wall_ms = 50000;
  RunScope outer(outer_budget, CancelToken{});
  EXPECT_TRUE(outer.armed_here());
  {
    RunBudget inner_budget;
    inner_budget.wall_ms = 1;
    RunScope inner(inner_budget, CancelToken{});
    EXPECT_FALSE(inner.armed_here());
    EXPECT_TRUE(governor().armed());
  }
  // Inner scope exit must not disarm the outer run's deadline.
  EXPECT_TRUE(governor().armed());
  EXPECT_DOUBLE_EQ(governor().report().total_wall_ms_limit, 50000);
}

TEST_F(CancelTest, DoubleArmThrows) {
  governor().arm(RunBudget{}, CancelToken{});
  EXPECT_THROW(governor().arm(RunBudget{}, CancelToken{}), std::logic_error);
}

TEST_F(CancelTest, ResetForTestRequiresDisarmed) {
  governor().arm(RunBudget{}, CancelToken{});
  EXPECT_THROW(governor().reset_for_test(), std::logic_error);
}

}  // namespace
}  // namespace fastsc::cancel
