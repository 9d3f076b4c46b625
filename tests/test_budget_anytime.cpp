// Pipeline-level deadline/cancellation tests: deterministic virtual-budget
// anytime results, un-hit budgets leaving runs untouched, stage budgets,
// external tokens, watchdog-driven anytime results, input validation gates,
// and a trip sweep over every discovered poll site asserting bounded work
// after cancellation and zero leaked device bytes.
#include "core/spectral.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "data/sbm.h"
#include "device/device.h"
#include "fault/fault.h"
#include "metrics/external.h"

namespace fastsc::core {
namespace {

data::SbmGraph easy_graph() {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(200, 4);
  p.p_in = 0.5;
  p.p_out = 0.02;
  p.seed = 3;
  return data::make_sbm(p);
}

SpectralConfig base_config() {
  SpectralConfig cfg;
  cfg.num_clusters = 4;
  cfg.backend = Backend::kDevice;
  cfg.seed = 42;
  return cfg;
}

class BudgetAnytimeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (cancel::governor().armed()) cancel::governor().disarm();
    cancel::governor().clear_trip();
    cancel::governor().set_recording(false);
    cancel::governor().reset_for_test();
    fault::injector().disarm();
  }
};

// An armed-but-never-hit budget must not perturb the run: byte-identical
// labels vs. the unbudgeted run, no expiry recorded, no leaked device bytes.
TEST_F(BudgetAnytimeTest, UnhitBudgetLeavesLabelsByteIdentical) {
  const data::SbmGraph g = easy_graph();
  const SpectralConfig cfg = base_config();

  device::DeviceContext clean_ctx(1);
  const SpectralResult clean = spectral_cluster_graph(g.w, cfg, &clean_ctx);
  EXPECT_FALSE(clean.budget.enabled);

  SpectralConfig budgeted = cfg;
  budgeted.budget = cancel::RunBudget::parse("total=1e9;total.virtual=1e9");
  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, budgeted, &ctx);
  EXPECT_EQ(r.labels, clean.labels);
  EXPECT_TRUE(r.budget.enabled);
  EXPECT_FALSE(r.budget.expired);
  EXPECT_FALSE(r.budget.anytime);
  EXPECT_GT(r.budget.total_virtual_spent_seconds, 0);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
  // The governor disarmed at scope exit; later runs are unaffected.
  EXPECT_FALSE(cancel::governor().armed());
}

// The tentpole acceptance test.  The budget is charged against the device's
// deterministic virtual transfer timeline, so an expiry mid-eigensolve lands
// at the same poll on every run: the anytime result is exactly reproducible,
// and its partial-Ritz embedding still recovers the planted partition.
TEST_F(BudgetAnytimeTest, VirtualBudgetExpiryYieldsReproducibleAnytimeResult) {
  const data::SbmGraph g = easy_graph();
  const SpectralConfig cfg = base_config();

  // Reference run with an un-hit budget, to read the eigensolver's virtual
  // spend off the BudgetReport.
  SpectralConfig probe = base_config();
  probe.budget = cancel::RunBudget::parse("total.virtual=1e9");
  device::DeviceContext probe_ctx(1);
  const SpectralResult full = spectral_cluster_graph(g.w, probe, &probe_ctx);
  double eig_virtual = 0;
  for (const cancel::StageSpend& s : full.budget.stages) {
    if (s.stage == kStageEigensolver) eig_virtual = s.virtual_spent_seconds;
  }
  ASSERT_GT(eig_virtual, 0) << "eigensolver stage must move data";

  // Now allow only ~75% of that spend: the deadline hits mid-eigensolve.
  SpectralConfig budgeted = base_config();
  budgeted.budget.anytime = true;
  budgeted.budget.stages[kStageEigensolver].virtual_seconds =
      0.75 * eig_virtual;

  device::DeviceContext ctx_a(1);
  const SpectralResult a = spectral_cluster_graph(g.w, budgeted, &ctx_a);
  EXPECT_TRUE(a.budget.expired);
  EXPECT_TRUE(a.budget.anytime);
  EXPECT_EQ(a.budget.reason, "budget.eigensolver.virtual");
  EXPECT_EQ(a.budget.expired_stage, kStageEigensolver);
  EXPECT_FALSE(a.budget.cancel_site.empty());
  ASSERT_EQ(a.labels.size(), static_cast<usize>(g.w.rows));
  EXPECT_EQ(ctx_a.counters().live_bytes, 0u);

  // The partial embedding must still be good enough to cluster.
  EXPECT_GE(metrics::adjusted_rand_index(a.labels, full.labels), 0.8);

  // Deterministic virtual timeline => the anytime result reproduces exactly.
  device::DeviceContext ctx_b(1);
  const SpectralResult b = spectral_cluster_graph(g.w, budgeted, &ctx_b);
  EXPECT_EQ(b.labels, a.labels);
  EXPECT_TRUE(b.budget.anytime);
  EXPECT_EQ(b.budget.reason, a.budget.reason);
  EXPECT_EQ(b.budget.cancel_site, a.budget.cancel_site);
}

// A k-means stage deadline that fires at the first sweep poll: the stage
// catches the CancelledError, enters wrap-up, and reruns to completion, so
// the labels match the unbudgeted run exactly.
TEST_F(BudgetAnytimeTest, KmeansStageBudgetRerunsUnderWrapup) {
  const data::SbmGraph g = easy_graph();
  device::DeviceContext clean_ctx(1);
  const SpectralResult clean =
      spectral_cluster_graph(g.w, base_config(), &clean_ctx);

  SpectralConfig budgeted = base_config();
  budgeted.budget = cancel::RunBudget::parse("kmeans=1e-4");  // 100ns wall
  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, budgeted, &ctx);
  EXPECT_TRUE(r.budget.expired);
  EXPECT_TRUE(r.budget.anytime);
  EXPECT_EQ(r.budget.expired_stage, kStageKmeans);
  EXPECT_EQ(r.labels, clean.labels);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
}

// Sharded runs charge the budget against the *group's* virtual timeline
// (sum over devices).  A virtual deadline that lands mid-exchange must
// still yield a clean, reproducible anytime result.
TEST_F(BudgetAnytimeTest, ShardedVirtualBudgetTripsMidExchange) {
  const data::SbmGraph g = easy_graph();

  // Probe the sharded eigensolver's virtual spend with an un-hit budget.
  SpectralConfig probe = base_config();
  probe.num_devices = 4;
  probe.budget = cancel::RunBudget::parse("total.virtual=1e9");
  const SpectralResult full = spectral_cluster_graph(g.w, probe);
  ASSERT_GT(full.device_counters.bytes_d2d, 0u);
  double eig_virtual = 0;
  for (const cancel::StageSpend& s : full.budget.stages) {
    if (s.stage == kStageEigensolver) eig_virtual = s.virtual_spent_seconds;
  }
  ASSERT_GT(eig_virtual, 0) << "sharded eigensolver stage must move data";

  // Allow ~60% of that spend: the deadline fires at a mid-solve poll while
  // halo/allreduce traffic is in flight on the modeled links.
  SpectralConfig budgeted = base_config();
  budgeted.num_devices = 4;
  budgeted.budget.anytime = true;
  budgeted.budget.stages[kStageEigensolver].virtual_seconds =
      0.6 * eig_virtual;

  const SpectralResult a = spectral_cluster_graph(g.w, budgeted);
  EXPECT_TRUE(a.budget.expired);
  EXPECT_TRUE(a.budget.anytime);
  EXPECT_EQ(a.budget.expired_stage, kStageEigensolver);
  ASSERT_EQ(a.labels.size(), static_cast<usize>(g.w.rows));
  EXPECT_GT(a.device_counters.bytes_d2d, 0u);
  EXPECT_GE(metrics::adjusted_rand_index(a.labels, full.labels), 0.8);

  // The group timeline is deterministic: the trip reproduces exactly.
  const SpectralResult b = spectral_cluster_graph(g.w, budgeted);
  EXPECT_EQ(b.labels, a.labels);
  EXPECT_EQ(b.budget.reason, a.budget.reason);
  EXPECT_EQ(b.budget.cancel_site, a.budget.cancel_site);
}

// A deadline that fires before the Lanczos basis holds nev vectors leaves
// no partial Ritz pairs to keep; with anytime enabled the run enters
// wrap-up and finishes the solve instead of throwing.
TEST_F(BudgetAnytimeTest, EarlyEigensolverBudgetFinishesUnderWrapup) {
  const data::SbmGraph g = easy_graph();
  const SpectralConfig clean_cfg = base_config();
  device::DeviceContext clean_ctx(1);
  const SpectralResult clean =
      spectral_cluster_graph(g.w, clean_cfg, &clean_ctx);

  SpectralConfig cfg = base_config();
  cfg.budget = cancel::RunBudget::parse("eigensolver.virtual=1e-9");
  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, cfg, &ctx);
  EXPECT_TRUE(r.budget.expired);
  EXPECT_TRUE(r.budget.anytime);
  EXPECT_EQ(r.budget.expired_stage, kStageEigensolver);
  ASSERT_EQ(r.labels.size(), static_cast<usize>(g.w.rows));
  EXPECT_EQ(r.labels, clean.labels);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
}

// anytime=0 turns a budget expiry into a hard CancelledError.
TEST_F(BudgetAnytimeTest, AnytimeDisabledBudgetThrows) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  cfg.budget = cancel::RunBudget::parse("total.virtual=1e-9;anytime=0");
  device::DeviceContext ctx(1);
  EXPECT_THROW((void)spectral_cluster_graph(g.w, cfg, &ctx),
               cancel::CancelledError);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
  EXPECT_FALSE(cancel::governor().armed());
}

// A pre-cancelled external token stops the run at its first poll site.
TEST_F(BudgetAnytimeTest, ExternalTokenCancelsRun) {
  const data::SbmGraph g = easy_graph();
  cancel::CancelSource src;
  src.request_cancel();
  SpectralConfig cfg = base_config();
  cfg.cancel_token = src.token();
  device::DeviceContext ctx(1);
  try {
    (void)spectral_cluster_graph(g.w, cfg, &ctx);
    FAIL() << "expected CancelledError";
  } catch (const cancel::CancelledError& e) {
    EXPECT_FALSE(e.site().empty()) << e.what();
  }
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
}

// Satellite (c): arm a cancellation trip at every poll site the budgeted
// device pipeline actually visits (nth=1, mirroring the fault-site sweep).
// Each trip must surface as CancelledError, leak zero device bytes, and do
// bounded work after the cancellation fired.
TEST_F(BudgetAnytimeTest, TripSweepAtEveryPollSiteCancelsCleanly) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  cfg.budget = cancel::RunBudget::parse("total=1e9");  // arm the governor

  cancel::governor().set_recording(true);
  {
    device::DeviceContext ctx(1);
    (void)spectral_cluster_graph(g.w, cfg, &ctx);
  }
  const std::vector<std::string> sites = cancel::governor().sites_seen();
  cancel::governor().set_recording(false);
  cancel::governor().reset_for_test();
  // The single-device graph pipeline must expose the eigensolver wave, the
  // k-means++ seeding and the k-means sweep sites.  It issues no stream ops,
  // so stream.queue does not appear.  (par.chunk only appears once hblas
  // loops cross their fork/join threshold; test_cancel covers it directly.)
  EXPECT_GE(sites.size(), 3u) << "poll coverage shrank";
  auto has = [&](const char* s) {
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  ASSERT_TRUE(has("lanczos.matvec"));
  ASSERT_TRUE(has("kmeans.seeding"));
  ASSERT_TRUE(has("kmeans.sweep"));

  for (const std::string& site : sites) {
    SCOPED_TRACE("trip at " + site);
    cancel::governor().set_trip(site, 1);
    device::DeviceContext ctx(1);
    bool cancelled = false;
    try {
      (void)spectral_cluster_graph(g.w, cfg, &ctx);
    } catch (const cancel::CancelledError&) {
      cancelled = true;
    }
    EXPECT_TRUE(cancelled) << "trip at " << site << " did not cancel";
    EXPECT_EQ(ctx.counters().live_bytes, 0u)
        << "device bytes leaked unwinding from " << site;
    // Bounded work after the fire: a few polls per worker/queued stream op,
    // not another stage's worth.
    EXPECT_LE(cancel::governor().polls_after_fire(), 256u)
        << "unbounded work after cancellation at " << site;
    cancel::governor().clear_trip();
    cancel::governor().reset_for_test();
  }
}

// Satellite (c)+tentpole: the stall watchdog converts a stalled eigensolver
// (every convergence check vetoed by the lanczos.convergence fault) into a
// deterministic anytime result instead of burning the full restart budget.
TEST_F(BudgetAnytimeTest, StallWatchdogYieldsAnytimeResult) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  cfg.max_restarts = 100;
  cfg.faults =
      fault::FaultPlan::parse("site=lanczos.convergence,nth=1,count=0");
  cfg.watchdog.stall_restarts = 3;
  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, cfg, &ctx);
  EXPECT_TRUE(r.budget.watchdog_fired);
  EXPECT_TRUE(r.budget.anytime);
  EXPECT_NE(r.budget.reason.find("watchdog.stall"), std::string::npos);
  // Well under the restart budget: the watchdog cut the stall short.
  EXPECT_LT(r.eig_stats.restart_count, 100);
  ASSERT_EQ(r.labels.size(), static_cast<usize>(g.w.rows));
  // The stalled solver had converged numerically (easy graph), so the
  // partial embedding still separates the planted blocks.
  EXPECT_GT(metrics::adjusted_rand_index(r.labels, g.labels), 0.8);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
}

// Satellite (b): NaN-poisoning at the public entry points.
TEST_F(BudgetAnytimeTest, GraphInputValidationCatchesPoisonedValues) {
  const data::SbmGraph g = easy_graph();
  sparse::Coo poisoned = g.w;
  poisoned.values[poisoned.values.size() / 2] =
      std::numeric_limits<real>::quiet_NaN();
  SpectralConfig cfg = base_config();
  device::DeviceContext ctx(1);
  try {
    (void)spectral_cluster_graph(poisoned, cfg, &ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("NaN or Inf"), std::string::npos)
        << e.what();
  }

  // The gate is opt-out for trusted inputs: with validation off, the NaN
  // sails past the entry point and whatever downstream stage chokes first
  // reports its own error, not the finiteness check.
  cfg.validate_inputs = false;
  try {
    (void)spectral_cluster_graph(poisoned, cfg, &ctx);
  } catch (const std::exception& e) {
    EXPECT_EQ(std::string(e.what()).find("NaN or Inf"), std::string::npos)
        << e.what();
  }
}

TEST_F(BudgetAnytimeTest, GraphInputValidationCatchesBadIndices) {
  const data::SbmGraph g = easy_graph();
  sparse::Coo bad = g.w;
  bad.col_idx[0] = bad.cols + 7;  // out of range
  SpectralConfig cfg = base_config();
  device::DeviceContext ctx(1);
  EXPECT_THROW((void)spectral_cluster_graph(bad, cfg, &ctx),
               std::invalid_argument);
}

TEST_F(BudgetAnytimeTest, PointsInputValidationCatchesPoisonedCoordinates) {
  // A tiny two-cluster point set with one poisoned coordinate.
  const index_t n = 8, d = 2;
  std::vector<real> x(static_cast<usize>(n * d));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<usize>(i * d)] = i < n / 2 ? 0.0 : 10.0;
    x[static_cast<usize>(i * d + 1)] = static_cast<real>(i % 4);
  }
  graph::EdgeList edges;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j) edges.push(i, j);
  }
  SpectralConfig cfg;
  cfg.num_clusters = 2;
  cfg.backend = Backend::kDevice;
  device::DeviceContext ctx(1);
  x[3] = std::numeric_limits<real>::infinity();
  EXPECT_THROW(
      (void)spectral_cluster_points(x.data(), n, d, edges, cfg, &ctx),
      std::invalid_argument);

  graph::EdgeList bad_edges = edges;
  x[3] = 0.5;
  bad_edges.push(0, n + 3);  // endpoint out of range
  EXPECT_THROW(
      (void)spectral_cluster_points(x.data(), n, d, bad_edges, cfg, &ctx),
      std::invalid_argument);
}

}  // namespace
}  // namespace fastsc::core
