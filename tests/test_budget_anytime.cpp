// Pipeline-level deadline/cancellation tests: trips standing in for the
// wall deadline give exactly reproducible anytime results, un-hit deadlines
// leave runs untouched, early and k-means-stage cuts rerun under wrap-up,
// external tokens and anytime=0 deadlines unwind, input validation gates,
// and trip sweeps over every discovered poll site of every backend: hard
// cancellations do bounded work and leak no device bytes, anytime cuts
// still label every vertex, in graph and points mode.
#include "core/spectral.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "data/dti.h"
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

/// base_config() under a deadline far beyond any run: the governor is armed
/// but the wall never fires, so a trip acts as the deadline.
SpectralConfig armed_config(bool anytime = true) {
  SpectralConfig cfg = base_config();
  cfg.budget.wall_ms = 1e9;
  cfg.budget.anytime = anytime;
  return cfg;
}

/// Runs `cfg` on `ctx` with the deadline tripped at the nth visit of `site`.
SpectralResult run_tripped(const sparse::Coo& w, const SpectralConfig& cfg,
                           device::DeviceContext* ctx, const char* site,
                           std::uint64_t nth) {
  cancel::governor().set_trip(site, nth);
  SpectralResult r = spectral_cluster_graph(w, cfg, ctx);
  cancel::governor().clear_trip();
  cancel::governor().reset_for_test();
  return r;
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

// An armed-but-never-hit deadline must not perturb the run: byte-identical
// labels vs. the unbudgeted run, no expiry recorded, no leaked device bytes.
TEST_F(BudgetAnytimeTest, UnhitBudgetLeavesLabelsByteIdentical) {
  const data::SbmGraph g = easy_graph();
  const SpectralConfig cfg = base_config();

  device::DeviceContext clean_ctx(1);
  const SpectralResult clean = spectral_cluster_graph(g.w, cfg, &clean_ctx);
  EXPECT_FALSE(clean.budget.enabled);

  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, armed_config(), &ctx);
  EXPECT_EQ(r.labels, clean.labels);
  EXPECT_TRUE(r.budget.enabled);
  EXPECT_FALSE(r.budget.expired);
  EXPECT_FALSE(r.budget.anytime);
  EXPECT_DOUBLE_EQ(r.budget.total_wall_ms_limit, 1e9);
  EXPECT_GT(r.budget.total_wall_ms_spent, 0);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
  // The governor disarmed at scope exit; later runs are unaffected.
  EXPECT_FALSE(cancel::governor().armed());
}

// A deadline that fires mid-eigensolve, at a fixed poll (a trip at about
// 3/4 of the clean run's waves), lands at the same iteration on every run:
// the anytime result is exactly reproducible, and its partial-Ritz
// embedding still recovers the planted partition.
TEST_F(BudgetAnytimeTest, VirtualBudgetExpiryYieldsReproducibleAnytimeResult) {
  const data::SbmGraph g = easy_graph();
  device::DeviceContext full_ctx(1);
  const SpectralResult full =
      spectral_cluster_graph(g.w, base_config(), &full_ctx);
  const index_t waves = full.eig_stats.matvec_count;
  ASSERT_GT(waves, 4) << "the eigensolver must take several waves";
  const auto nth = static_cast<std::uint64_t>(3 * waves / 4);

  const SpectralConfig budgeted = armed_config();
  device::DeviceContext ctx_a(1);
  const SpectralResult a =
      run_tripped(g.w, budgeted, &ctx_a, "lanczos.matvec", nth);
  EXPECT_TRUE(a.budget.expired);
  EXPECT_TRUE(a.budget.anytime);
  EXPECT_EQ(a.budget.reason, "trip:lanczos.matvec");
  EXPECT_EQ(a.budget.cancel_site, "lanczos.matvec");
  ASSERT_EQ(a.labels.size(), static_cast<usize>(g.w.rows));
  EXPECT_EQ(ctx_a.counters().live_bytes, 0u);

  // The partial embedding must still be good enough to cluster.
  EXPECT_GE(metrics::adjusted_rand_index(a.labels, full.labels), 0.8);

  // A poll count is exact => the anytime result reproduces exactly.
  device::DeviceContext ctx_b(1);
  const SpectralResult b =
      run_tripped(g.w, budgeted, &ctx_b, "lanczos.matvec", nth);
  EXPECT_EQ(b.labels, a.labels);
  EXPECT_TRUE(b.budget.anytime);
  EXPECT_EQ(b.budget.reason, a.budget.reason);
  EXPECT_EQ(b.budget.cancel_site, a.budget.cancel_site);
}

// A deadline that fires at the first k-means sweep poll: the stage catches
// the CancelledError, enters wrap-up, and reruns to completion, so the
// labels match the unbudgeted run exactly.
TEST_F(BudgetAnytimeTest, KmeansStageBudgetRerunsUnderWrapup) {
  const data::SbmGraph g = easy_graph();
  device::DeviceContext clean_ctx(1);
  const SpectralResult clean =
      spectral_cluster_graph(g.w, base_config(), &clean_ctx);

  device::DeviceContext ctx(1);
  const SpectralResult r =
      run_tripped(g.w, armed_config(), &ctx, "kmeans.sweep", 1);
  EXPECT_TRUE(r.budget.expired);
  EXPECT_TRUE(r.budget.anytime);
  EXPECT_EQ(r.budget.cancel_site, "kmeans.sweep");
  EXPECT_EQ(r.labels, clean.labels);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
}

// A sharded run cut by a deadline at a mid-solve poll, while halo/allreduce
// traffic is in flight on the modeled links, must still yield a clean,
// reproducible anytime result.
TEST_F(BudgetAnytimeTest, ShardedVirtualBudgetTripsMidExchange) {
  const data::SbmGraph g = easy_graph();

  SpectralConfig probe = base_config();
  probe.num_devices = 4;
  const SpectralResult full = spectral_cluster_graph(g.w, probe);
  ASSERT_GT(full.device_counters.bytes_d2d, 0u);
  const index_t waves = full.eig_stats.matvec_count;
  ASSERT_GT(waves, 4) << "the sharded eigensolver must take several waves";
  const auto nth = static_cast<std::uint64_t>(3 * waves / 5);

  SpectralConfig budgeted = armed_config();
  budgeted.num_devices = 4;
  const SpectralResult a =
      run_tripped(g.w, budgeted, nullptr, "lanczos.matvec", nth);
  EXPECT_TRUE(a.budget.expired);
  EXPECT_TRUE(a.budget.anytime);
  ASSERT_EQ(a.labels.size(), static_cast<usize>(g.w.rows));
  EXPECT_GT(a.device_counters.bytes_d2d, 0u);
  EXPECT_GE(metrics::adjusted_rand_index(a.labels, full.labels), 0.8);

  // The trip reproduces exactly.
  const SpectralResult b =
      run_tripped(g.w, budgeted, nullptr, "lanczos.matvec", nth);
  EXPECT_EQ(b.labels, a.labels);
  EXPECT_EQ(b.budget.reason, a.budget.reason);
  EXPECT_EQ(b.budget.cancel_site, a.budget.cancel_site);
}

// A deadline that fires before the Lanczos basis holds nev vectors leaves
// no partial Ritz pairs to keep; with anytime enabled the run enters
// wrap-up and finishes the solve instead of throwing.
TEST_F(BudgetAnytimeTest, EarlyEigensolverBudgetFinishesUnderWrapup) {
  const data::SbmGraph g = easy_graph();
  device::DeviceContext clean_ctx(1);
  const SpectralResult clean =
      spectral_cluster_graph(g.w, base_config(), &clean_ctx);

  device::DeviceContext ctx(1);
  const SpectralResult r =
      run_tripped(g.w, armed_config(), &ctx, "lanczos.matvec", 1);
  EXPECT_TRUE(r.budget.expired);
  EXPECT_TRUE(r.budget.anytime);
  EXPECT_EQ(r.budget.cancel_site, "lanczos.matvec");
  ASSERT_EQ(r.labels.size(), static_cast<usize>(g.w.rows));
  EXPECT_EQ(r.labels, clean.labels);
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
}

// anytime=0 turns a deadline expiry into a hard CancelledError.
TEST_F(BudgetAnytimeTest, AnytimeDisabledBudgetThrows) {
  const data::SbmGraph g = easy_graph();
  device::DeviceContext ctx(1);
  cancel::governor().set_trip("lanczos.matvec", 1);
  EXPECT_THROW(
      (void)spectral_cluster_graph(g.w, armed_config(/*anytime=*/false), &ctx),
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

constexpr Backend kBackends[] = {Backend::kDevice, Backend::kMatlabLike,
                                 Backend::kPythonLike};

/// Every poll site `run(ctx)` visits on a fresh single-device context.
template <class Run>
std::vector<std::string> discover_poll_sites(const Run& run) {
  cancel::governor().set_recording(true);
  {
    device::DeviceContext ctx(1);
    run(ctx);
  }
  std::vector<std::string> sites = cancel::governor().sites_seen();
  cancel::governor().set_recording(false);
  cancel::governor().reset_for_test();
  return sites;
}

bool contains(const std::vector<std::string>& sites, const char* site) {
  return std::find(sites.begin(), sites.end(), site) != sites.end();
}

// Arm a cancellation trip at every poll site the pipeline actually visits
// (nth=1, mirroring the fault-site sweep) on a run that forbids anytime
// results, for every backend.  Each trip must surface as CancelledError,
// leak zero device bytes, and do bounded work after the cancellation fired.
TEST_F(BudgetAnytimeTest, TripSweepAtEveryPollSiteCancelsCleanly) {
  const data::SbmGraph g = easy_graph();
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(backend_name(backend));
    SpectralConfig cfg = armed_config(/*anytime=*/false);
    cfg.backend = backend;
    const auto run = [&](device::DeviceContext& ctx) {
      (void)spectral_cluster_graph(g.w, cfg, &ctx);
    };
    const std::vector<std::string> sites = discover_poll_sites(run);
    // Every backend polls the eigensolver wave and the k-means sweep; the
    // k-means++ seeding (device and Python-like) polls too.  (par.chunk
    // only appears once hblas loops cross their fork/join threshold;
    // test_cancel covers it directly.)
    ASSERT_TRUE(contains(sites, "lanczos.matvec")) << "poll coverage shrank";
    ASSERT_TRUE(contains(sites, "kmeans.sweep")) << "poll coverage shrank";
    if (backend != Backend::kMatlabLike) {
      ASSERT_TRUE(contains(sites, "kmeans.seeding")) << "poll coverage shrank";
    }

    for (const std::string& site : sites) {
      SCOPED_TRACE("trip at " + site);
      cancel::governor().set_trip(site, 1);
      device::DeviceContext ctx(1);
      bool cancelled = false;
      try {
        run(ctx);
      } catch (const cancel::CancelledError&) {
        cancelled = true;
      }
      EXPECT_TRUE(cancelled) << "trip at " << site << " did not cancel";
      EXPECT_EQ(ctx.counters().live_bytes, 0u)
          << "device bytes leaked unwinding from " << site;
      // Bounded work after the fire: a few polls per worker, not another
      // stage's worth.
      EXPECT_LE(cancel::governor().polls_after_fire(), 256u)
          << "unbounded work after cancellation at " << site;
      cancel::governor().clear_trip();
      cancel::governor().reset_for_test();
    }
  }
}

// The same sweep with anytime results allowed: wherever the deadline fires,
// on every backend, the run completes with a label for every vertex and
// leaks no device bytes.
TEST_F(BudgetAnytimeTest, AnytimeTripSweepAtEveryPollSiteLabelsEveryVertex) {
  const data::SbmGraph g = easy_graph();
  for (const Backend backend : kBackends) {
    SCOPED_TRACE(backend_name(backend));
    SpectralConfig cfg = armed_config();
    cfg.backend = backend;
    const std::vector<std::string> sites =
        discover_poll_sites([&](device::DeviceContext& ctx) {
          (void)spectral_cluster_graph(g.w, cfg, &ctx);
        });
    ASSERT_TRUE(contains(sites, "lanczos.matvec")) << "poll coverage shrank";
    ASSERT_TRUE(contains(sites, "kmeans.sweep")) << "poll coverage shrank";
    if (backend != Backend::kMatlabLike) {
      ASSERT_TRUE(contains(sites, "kmeans.seeding")) << "poll coverage shrank";
    }

    for (const std::string& site : sites) {
      SCOPED_TRACE("trip at " + site);
      device::DeviceContext ctx(1);
      const SpectralResult r = run_tripped(g.w, cfg, &ctx, site.c_str(), 1);
      EXPECT_TRUE(r.budget.expired);
      EXPECT_EQ(r.labels.size(), static_cast<usize>(g.w.rows));
      EXPECT_EQ(ctx.counters().live_bytes, 0u)
          << "device bytes leaked under an anytime cut at " << site;
    }
  }
}

// The anytime sweep over a points-mode input, so Algorithm 1's poll sites
// are cut too: the device backend streams the edge list through the device
// in chunks, the Matlab-like backend runs its per-edge loop.  Wherever the
// deadline fires, every point gets a label.
TEST_F(BudgetAnytimeTest, AnytimeTripSweepOverPointsLabelsEveryPoint) {
  data::DtiParams dp;
  dp.nx = 10;
  dp.ny = 10;
  dp.nz = 6;
  dp.profile_dim = 20;
  dp.num_parcels = 4;
  dp.epsilon = 1.0;
  dp.noise = 0.1;
  const data::DtiVolume vol = data::make_dti_like(dp);
  ASSERT_EQ(vol.n, 600);

  for (const Backend backend : {Backend::kDevice, Backend::kMatlabLike}) {
    SCOPED_TRACE(backend_name(backend));
    SpectralConfig cfg = armed_config();
    cfg.backend = backend;
    cfg.similarity.measure = graph::SimilarityMeasure::kCrossCorrelation;
    cfg.similarity_chunk_edges = 2000;
    const auto run = [&](device::DeviceContext& ctx) {
      return spectral_cluster_points(vol.profiles.data(), vol.n, vol.d,
                                     vol.edges, cfg, &ctx);
    };
    const std::vector<std::string> sites = discover_poll_sites(run);
    ASSERT_TRUE(contains(sites, backend == Backend::kDevice
                                    ? "similarity.chunk"
                                    : "similarity.row"));
    ASSERT_TRUE(contains(sites, "lanczos.matvec"));

    for (const std::string& site : sites) {
      SCOPED_TRACE("trip at " + site);
      device::DeviceContext ctx(1);
      cancel::governor().set_trip(site, 1);
      const SpectralResult r = run(ctx);
      cancel::governor().clear_trip();
      cancel::governor().reset_for_test();
      EXPECT_TRUE(r.budget.expired);
      EXPECT_TRUE(r.budget.anytime);
      EXPECT_EQ(r.labels.size(), static_cast<usize>(vol.n));
      EXPECT_EQ(ctx.counters().live_bytes, 0u)
          << "device bytes leaked under an anytime cut at " << site;
    }
  }
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
