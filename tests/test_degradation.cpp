// Graceful-degradation tests for the device pipeline: per-site fault sweep
// (every injectable allocation/transfer site, nth=1, must leave the
// clustering unchanged), total-outage host fallback (which still obeys the
// run's deadline), policy gating, the kFailed partial-results path, golden
// determinism of repeated runs, and the degradation section of the run
// report JSON.
#include "core/spectral.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "core/report.h"
#include "data/sbm.h"
#include "device/device.h"
#include "fault/fault.h"
#include "lanczos/rci.h"
#include "metrics/external.h"
#include "sparse/convert.h"
#include "sparse/spmv.h"

namespace fastsc::core {
namespace {

/// A well-separated 4-block SBM (Syn200 shape): every backend and every
/// degradation rung recovers the same planted partition, which is what lets
/// the sweep assert ARI == 1 against the fault-free labels.
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

class DegradationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::injector().disarm();
    fault::injector().set_recording(false);
    cancel::governor().clear_trip();
    cancel::governor().reset_for_test();
  }
};

TEST_F(DegradationTest, FaultFreeRunRecoversPlantedPartition) {
  const data::SbmGraph g = easy_graph();
  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, base_config(), &ctx);
  EXPECT_TRUE(r.eig_converged);
  EXPECT_FALSE(r.degradation.degraded);
  EXPECT_EQ(r.device_counters.transfer_retries, 0u);
  EXPECT_GT(metrics::adjusted_rand_index(r.labels, g.labels), 0.95);
}

// The tentpole acceptance test: discover every fault site the device
// pipeline consults (recording mode), then re-run once per site with a
// single injected fault at its first occurrence.  Transfer faults must be
// absorbed by the retry; the allocation fault must walk the ladder.  In
// every case the clustering must match the fault-free run exactly.
TEST_F(DegradationTest, SingleFaultAtEverySiteLeavesClusteringUnchanged) {
  const data::SbmGraph g = easy_graph();
  const SpectralConfig cfg = base_config();

  device::DeviceContext clean_ctx(1);
  const SpectralResult clean = spectral_cluster_graph(g.w, cfg, &clean_ctx);
  ASSERT_GT(metrics::adjusted_rand_index(clean.labels, g.labels), 0.95);

  fault::injector().set_recording(true);
  {
    device::DeviceContext ctx(1);
    (void)spectral_cluster_graph(g.w, cfg, &ctx);
  }
  const auto sites = fault::injector().sites_seen();
  fault::injector().set_recording(false);

  std::vector<std::string> device_sites;
  for (const auto& [site, stats] : sites) {
    if (stats.occurrences == 0) continue;
    if (site.starts_with("device.") || site.starts_with("copy.")) {
      device_sites.push_back(site);
    }
  }
  // The graph pipeline must expose at least the allocation site and
  // one transfer site in each direction.
  ASSERT_TRUE(sites.contains("device.alloc"));
  ASSERT_GE(device_sites.size(), 3u);

  for (const std::string& site : device_sites) {
    SpectralConfig faulty = cfg;
    faulty.faults = fault::FaultPlan::parse("site=" + site + ",nth=1");
    device::DeviceContext ctx(1);
    const SpectralResult r = spectral_cluster_graph(g.w, faulty, &ctx);
    EXPECT_DOUBLE_EQ(metrics::adjusted_rand_index(r.labels, clean.labels),
                     1.0)
        << "clustering changed under a single fault at site " << site;
    if (site != "device.alloc") {
      // One transient transfer fault: absorbed by the retry, bit-identical
      // labels, and no ladder rung taken.
      EXPECT_EQ(r.labels, clean.labels) << "site " << site;
      EXPECT_EQ(r.device_counters.transfer_retries, 1u) << "site " << site;
      EXPECT_FALSE(r.degradation.degraded) << "site " << site;
    } else {
      EXPECT_TRUE(r.degradation.degraded);
    }
  }
}

TEST_F(DegradationTest, TotalAllocationOutageFallsBackToHost) {
  const data::SbmGraph g = easy_graph();
  device::DeviceContext clean_ctx(1);
  const SpectralResult clean =
      spectral_cluster_graph(g.w, base_config(), &clean_ctx);

  SpectralConfig cfg = base_config();
  cfg.faults = fault::FaultPlan::parse("site=device.alloc,nth=1,count=0");
  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, cfg, &ctx);

  EXPECT_TRUE(r.degradation.degraded);
  bool host_eig = false;
  bool host_kmeans = false;
  for (const DegradationEvent& e : r.degradation.events) {
    if (e.action == "host-eigensolver") host_eig = true;
    if (e.action == "host-kmeans") host_kmeans = true;
    EXPECT_FALSE(e.reason.empty());
  }
  EXPECT_TRUE(host_eig);
  EXPECT_TRUE(host_kmeans);
  EXPECT_TRUE(r.eig_converged);
  EXPECT_DOUBLE_EQ(metrics::adjusted_rand_index(r.labels, clean.labels), 1.0);

  // The host-eigensolver rung obeys the run's deadline: a deadline that
  // fires at its first wave, with anytime results forbidden, unwinds from
  // there.
  cfg.budget.wall_ms = 1e9;
  cfg.budget.anytime = false;
  device::DeviceContext cut_ctx(1);
  cancel::governor().set_trip("lanczos.matvec", 1);
  try {
    (void)spectral_cluster_graph(g.w, cfg, &cut_ctx);
    ADD_FAILURE() << "expected CancelledError";
  } catch (const cancel::CancelledError& e) {
    EXPECT_EQ(e.site(), "lanczos.matvec") << e.what();
  }
  cancel::governor().clear_trip();
  cancel::governor().reset_for_test();
  EXPECT_EQ(cut_ctx.counters().live_bytes, 0u);
}

TEST_F(DegradationTest, DisabledPolicyRethrows) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  cfg.degradation.enabled = false;
  cfg.faults = fault::FaultPlan::parse("site=device.alloc,nth=1,count=0");
  device::DeviceContext ctx(1);
  EXPECT_THROW((void)spectral_cluster_graph(g.w, cfg, &ctx),
               device::DeviceOutOfMemory);
}

TEST_F(DegradationTest, ExhaustedLadderRethrows) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  cfg.degradation.allow_sync_fallback = false;
  cfg.degradation.allow_host_fallback = false;
  cfg.faults = fault::FaultPlan::parse("site=device.alloc,nth=1,count=0");
  device::DeviceContext ctx(1);
  EXPECT_THROW((void)spectral_cluster_graph(g.w, cfg, &ctx),
               device::DeviceOutOfMemory);
}

// ---------------------------------------------------------------------------
// kFailed partial results (satellite): an exhausted restart budget is not an
// error — the solver hands back its best partial eigenpairs with residuals,
// and the pipeline still clusters with them.
// ---------------------------------------------------------------------------

TEST_F(DegradationTest, FailedSolveReturnsPartialEigenpairsWithResiduals) {
  Rng rng(5);
  const index_t n = 60;
  sparse::Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.push(i, i, rng.uniform(0, 2));
    const auto j = static_cast<index_t>(rng.uniform_index(n));
    if (j != i) {
      const real v = rng.uniform(-1, 1);
      coo.push(i, j, v);
      coo.push(j, i, v);
    }
  }
  sparse::sort_and_merge(coo);
  const sparse::Csr a = sparse::coo_to_csr(coo);

  lanczos::LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 4;
  cfg.ncv = 9;
  cfg.tol = 1e-16;  // unreachable: force restart-budget exhaustion
  cfg.max_restarts = 1;
  const auto eig = lanczos::solve_symmetric(
      cfg, [&](const real* x, real* y) { sparse::csr_mv(a, x, y); });
  EXPECT_FALSE(eig.converged);
  ASSERT_EQ(eig.eigenvalues.size(), 4u);  // best estimates up to nev
  ASSERT_EQ(eig.residuals.size(), eig.eigenvalues.size());
  ASSERT_EQ(eig.eigenvectors.size(), 4u * static_cast<usize>(n));
  for (const real r : eig.residuals) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GE(r, 0);
  }
  EXPECT_EQ(eig.stats.restart_count, 1);
}

TEST_F(DegradationTest, FailedSolveStillRunsKmeansDownstream) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  // Every convergence check is vetoed, so the solver exhausts its (small)
  // restart budget and reports failure; the pipeline must keep going.
  cfg.max_restarts = 3;
  cfg.faults =
      fault::FaultPlan::parse("site=lanczos.convergence,nth=1,count=0");
  device::DeviceContext ctx(1);
  const SpectralResult r = spectral_cluster_graph(g.w, cfg, &ctx);
  EXPECT_FALSE(r.eig_converged);
  EXPECT_EQ(r.eig_stats.restart_count, 3);
  EXPECT_EQ(r.labels.size(), static_cast<usize>(g.w.rows));
  EXPECT_EQ(r.eigenvalues.size(), 4u);
  EXPECT_EQ(r.embedding.size(), static_cast<usize>(g.w.rows) * 4u);
  EXPECT_GT(r.kmeans_iterations, 0);
  // The stalled solver had actually converged numerically (easy graph), so
  // its partial embedding still separates the planted blocks.
  EXPECT_GT(metrics::adjusted_rand_index(r.labels, g.labels), 0.95);
}

// ---------------------------------------------------------------------------
// Golden determinism (satellite).
// ---------------------------------------------------------------------------

TEST_F(DegradationTest, RepeatedRunsAreByteIdentical) {
  const data::SbmGraph g = easy_graph();
  const SpectralConfig cfg = base_config();
  device::DeviceContext ctx_a(1);
  device::DeviceContext ctx_b(1);
  const SpectralResult a = spectral_cluster_graph(g.w, cfg, &ctx_a);
  const SpectralResult b = spectral_cluster_graph(g.w, cfg, &ctx_b);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.eigenvalues, b.eigenvalues);
  EXPECT_EQ(a.embedding, b.embedding);
  EXPECT_EQ(a.eig_stats.matvec_count, b.eig_stats.matvec_count);
  EXPECT_EQ(a.eig_stats.restart_count, b.eig_stats.restart_count);
  EXPECT_EQ(a.kmeans_iterations, b.kmeans_iterations);
  EXPECT_EQ(a.device_counters.bytes_h2d, b.device_counters.bytes_h2d);
  EXPECT_EQ(a.device_counters.bytes_d2h, b.device_counters.bytes_d2h);
  EXPECT_EQ(a.device_counters.transfers_h2d, b.device_counters.transfers_h2d);
}

TEST_F(DegradationTest, FaultInjectedRunsAreReproducible) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  // Mixed plan: a probability rule on the h2d transfer sites plus a
  // one-shot allocation fault — the same plan seed must reproduce the same
  // retries, the same ladder decisions, and the same labels.
  cfg.faults = fault::FaultPlan::parse(
      "site=device.alloc,nth=2;site=copy.h2d,p=0.05,count=0;seed=17");
  device::DeviceContext ctx_a(1);
  device::DeviceContext ctx_b(1);
  const SpectralResult a = spectral_cluster_graph(g.w, cfg, &ctx_a);
  const SpectralResult b = spectral_cluster_graph(g.w, cfg, &ctx_b);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.device_counters.transfer_retries,
            b.device_counters.transfer_retries);
  ASSERT_EQ(a.degradation.events.size(), b.degradation.events.size());
  for (usize i = 0; i < a.degradation.events.size(); ++i) {
    EXPECT_EQ(a.degradation.events[i].stage, b.degradation.events[i].stage);
    EXPECT_EQ(a.degradation.events[i].action, b.degradation.events[i].action);
  }
}

// ---------------------------------------------------------------------------
// Run report: the degradation section is part of the JSON schema.
// ---------------------------------------------------------------------------

TEST_F(DegradationTest, RunReportCarriesDegradationSection) {
  const data::SbmGraph g = easy_graph();
  SpectralConfig cfg = base_config();
  cfg.faults = fault::FaultPlan::parse(
      "site=device.alloc,nth=1,count=0;site=copy.h2d,nth=1");
  device::DeviceContext ctx(1);
  SpectralResult r = spectral_cluster_graph(g.w, cfg, &ctx);
  ASSERT_TRUE(r.degradation.degraded);

  BackendRuns runs;
  runs.dataset = "syn200";
  runs.nodes = g.w.rows;
  runs.edges = g.w.nnz();
  runs.clusters = 4;
  runs.runs.emplace_back(Backend::kDevice, std::move(r));
  RunReport report;
  report.bench = "test";
  report.datasets.push_back(std::move(runs));

  std::ostringstream os;
  write_run_report_json(report, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"degradation\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("host-eigensolver"), std::string::npos);
  EXPECT_NE(json.find("\"transfer_retries\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
}

}  // namespace
}  // namespace fastsc::core
