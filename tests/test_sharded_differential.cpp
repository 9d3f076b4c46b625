// Differential tests: the sharded multi-device pipeline against the
// single-device reference.  The determinism contract (DESIGN.md §12) is
// bitwise: sharded SpMV/SpMM reproduce device_csrmv/device_csrmm exactly,
// and the end-to-end pipeline emits byte-identical labels for every value
// of SpectralConfig::num_devices.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/report.h"
#include "core/spectral.h"
#include "data/dti.h"
#include "data/powerlaw.h"
#include "data/sbm.h"
#include "data/social.h"
#include "device/device_group.h"
#include "graph/components.h"
#include "sparse/convert.h"
#include "sparse/shard.h"
#include "sparse/spmv.h"

namespace fastsc {
namespace {

using core::Backend;
using core::SpectralConfig;
using core::SpectralResult;
using device::DeviceGroup;
using sparse::Csr;

std::vector<real> random_vector(usize n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real> x(n);
  for (real& v : x) v = rng.uniform() * 2.0 - 1.0;
  return x;
}

/// Reference y = A x through the single-device kernel.
std::vector<real> reference_csrmv(const Csr& a, const std::vector<real>& x) {
  device::DeviceContext ctx(1);
  sparse::DeviceCsr da(ctx, a);
  device::DeviceBuffer<real> dx(ctx, std::span<const real>(x));
  device::DeviceBuffer<real> dy(ctx, static_cast<usize>(a.rows));
  sparse::device_csrmv(ctx, da, dx.data(), dy.data());
  return dy.to_host();
}

void expect_bitwise_equal(const std::vector<real>& got,
                          const std::vector<real>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(real)),
            0)
      << what << ": sharded result is not bitwise equal to the reference";
}

class ShardedSpmv : public ::testing::TestWithParam<usize> {};

TEST_P(ShardedSpmv, BitwiseEqualOnPowerlaw) {
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 700, .avg_degree = 9.0, .seed = 21});
  const Csr a = sparse::coo_to_csr(g.w);
  const std::vector<real> x =
      random_vector(static_cast<usize>(a.cols), 123);
  const std::vector<real> want = reference_csrmv(a, x);

  device::DeviceContext root(1);
  DeviceGroup group(root, GetParam());
  sparse::ShardedCsr sp = sparse::shard_csr(group, a);
  std::vector<real> y(static_cast<usize>(a.rows), -7.0);
  sparse::sharded_csrmv(sp, x.data(), y.data());
  expect_bitwise_equal(y, want, "powerlaw csrmv");

  // A second wave through the same persistent executors must be just as
  // exact (the RCI loop reuses the sharded operator every iteration).
  const std::vector<real> x2 = random_vector(static_cast<usize>(a.cols), 9);
  const std::vector<real> want2 = reference_csrmv(a, x2);
  sparse::sharded_csrmv(sp, x2.data(), y.data());
  expect_bitwise_equal(y, want2, "powerlaw csrmv wave 2");
}

TEST_P(ShardedSpmv, BitwiseEqualWithHubAndEmptyRows) {
  // A hub row referencing every column plus interleaved empty rows: the
  // halo paths and the whole-row merge-path cut both get exercised hard.
  const index_t n = 240;
  Csr a(n, n);
  Rng rng(5);
  for (index_t r = 0; r < n; ++r) {
    a.row_ptr[static_cast<usize>(r) + 1] = a.row_ptr[static_cast<usize>(r)];
    if (r % 3 == 1) continue;  // empty row
    const index_t deg = (r == 100) ? n : 4;
    for (index_t j = 0; j < deg; ++j) {
      const index_t c =
          (r == 100) ? j
                     : static_cast<index_t>(rng.uniform_index(
                           static_cast<std::uint64_t>(n)));
      a.col_idx.push_back(c);
      a.values.push_back(rng.uniform() - 0.5);
      ++a.row_ptr[static_cast<usize>(r) + 1];
    }
  }
  const std::vector<real> x = random_vector(static_cast<usize>(n), 77);
  const std::vector<real> want = reference_csrmv(a, x);

  device::DeviceContext root(1);
  DeviceGroup group(root, GetParam());
  sparse::ShardedCsr sp = sparse::shard_csr(group, a);
  std::vector<real> y(static_cast<usize>(n));
  sparse::sharded_csrmv(sp, x.data(), y.data());
  expect_bitwise_equal(y, want, "hub/empty csrmv");
}

TEST_P(ShardedSpmv, BitwiseEqualWithEmptyShards) {
  // Aligned cuts larger than the matrix leave trailing devices with zero
  // rows; the wave must still complete and stay exact.
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 300, .avg_degree = 6.0, .seed = 31});
  const Csr a = sparse::coo_to_csr(g.w);
  const std::vector<real> x =
      random_vector(static_cast<usize>(a.cols), 55);
  const std::vector<real> want = reference_csrmv(a, x);

  device::DeviceContext root(1);
  DeviceGroup group(root, GetParam());
  sparse::ShardedCsr sp = sparse::shard_csr(group, a, /*align=*/256);
  std::vector<real> y(static_cast<usize>(a.rows));
  sparse::sharded_csrmv(sp, x.data(), y.data());
  expect_bitwise_equal(y, want, "empty-shard csrmv");
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, ShardedSpmv,
                         ::testing::Values(2u, 4u, 8u));

// ---------------------------------------------------------------------------
// End-to-end: the pipeline's labels, eigenvalues and embedding are
// byte-identical for every device count.

SpectralConfig pipeline_config(index_t k, index_t num_devices) {
  SpectralConfig cfg;
  cfg.num_clusters = k;
  cfg.backend = Backend::kDevice;
  cfg.num_devices = num_devices;
  cfg.seed = 42;
  return cfg;
}

void check_device_count_invariance(const sparse::Coo& w_in, index_t k,
                                   const char* dataset) {
  // The sparse generators leave a few isolated vertices behind; the
  // normalized Laplacian needs every degree positive, so cluster the giant
  // component like the benches do.
  std::vector<index_t> old_of_new;
  const sparse::Coo w = graph::largest_component(w_in, old_of_new);
  const SpectralResult base =
      core::spectral_cluster_graph(w, pipeline_config(k, 1));
  ASSERT_EQ(base.labels.size(), static_cast<usize>(w.rows)) << dataset;
  for (const index_t nd : {2, 4, 8}) {
    const SpectralResult sharded =
        core::spectral_cluster_graph(w, pipeline_config(k, nd));
    SCOPED_TRACE(std::string(dataset) + " num_devices=" +
                 std::to_string(nd));
    // Labels: byte-identical.
    ASSERT_EQ(sharded.labels.size(), base.labels.size());
    EXPECT_EQ(std::memcmp(sharded.labels.data(), base.labels.data(),
                          base.labels.size() * sizeof(index_t)),
              0);
    // Eigenpairs: bitwise, since both drivers accumulate every row
    // serially in entry order.
    expect_bitwise_equal(sharded.eigenvalues, base.eigenvalues,
                         "eigenvalues");
    expect_bitwise_equal(sharded.embedding, base.embedding, "embedding");
    EXPECT_EQ(sharded.eig_converged, base.eig_converged);
    EXPECT_EQ(sharded.kmeans_iterations, base.kmeans_iterations);
    // The sharded run really ran sharded: peer traffic was metered.
    EXPECT_GT(sharded.device_counters.bytes_d2d, 0u);
    EXPECT_GT(sharded.device_counters.modeled_d2d_seconds, 0.0);
  }
  EXPECT_EQ(base.device_counters.bytes_d2d, 0u) << dataset;
}

TEST(ShardedPipeline, LabelsByteIdenticalOnFbLike) {
  const data::SbmGraph g =
      data::make_social_graph(data::fb_like_params(1200, 5, 42));
  check_device_count_invariance(g.w, 5, "fb-like");
}

TEST(ShardedPipeline, LabelsByteIdenticalOnDblpLike) {
  const data::SbmGraph g =
      data::make_social_graph(data::dblp_like_params(1500, 6, 42));
  check_device_count_invariance(g.w, 6, "dblp-like");
}

TEST(ShardedPipeline, LabelsByteIdenticalOnSyn200StyleSbm) {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(1024, 4);
  p.p_in = 0.25;
  p.p_out = 0.01;
  p.seed = 11;
  const data::SbmGraph g = data::make_sbm(p);
  check_device_count_invariance(g.w, 4, "sbm");
}

TEST(ShardedPipeline, LabelsByteIdenticalOnPowerlaw) {
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 1100, .avg_degree = 8.0, .seed = 7});
  check_device_count_invariance(g.w, 4, "powerlaw");
}

// The Ng-Jordan-Weiss variant normalizes the embedding rows once, in the
// k-means stage every pipeline shares, so the normalized embedding and the
// labels are the same bits at every device count.
TEST(ShardedPipeline, NjwEmbeddingAndLabelsBitwiseAcrossDeviceCounts) {
  for (const std::uint64_t seed : {42u, 7u}) {
    const data::SbmGraph g =
        data::make_social_graph(data::fb_like_params(1200, 5, seed));
    std::vector<index_t> old_of_new;
    const sparse::Coo w = graph::largest_component(g.w, old_of_new);
    SpectralConfig cfg = pipeline_config(5, 1);
    cfg.row_normalize_embedding = true;
    const SpectralResult base = core::spectral_cluster_graph(w, cfg);
    for (index_t i = 0; i < base.n; ++i) {
      real norm2 = 0;
      for (index_t l = 0; l < base.k; ++l) {
        const real v = base.embedding[static_cast<usize>(i * base.k + l)];
        norm2 += v * v;
      }
      ASSERT_NEAR(norm2, 1.0, 1e-9) << "row " << i << " not normalized";
    }
    for (const index_t nd : {2, 4, 8}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " num_devices=" +
                   std::to_string(nd));
      cfg.num_devices = nd;
      const SpectralResult r = core::spectral_cluster_graph(w, cfg);
      expect_bitwise_equal(r.embedding, base.embedding, "NJW embedding");
      ASSERT_EQ(r.labels.size(), base.labels.size());
      EXPECT_EQ(std::memcmp(r.labels.data(), base.labels.data(),
                            base.labels.size() * sizeof(index_t)),
                0);
    }
  }
}

// The single-device SpMV gives every worker whole rows and the k-means sweep
// folds fixed point blocks, so neither the eigenpairs nor the labels depend
// on the device context's worker count.
TEST(ShardedPipeline, EigenpairsBitwiseAcrossWorkerCounts) {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(1500, 10);
  p.p_in = 0.08;
  p.p_out = 0.004;
  p.seed = 23;
  std::vector<index_t> old_of_new;
  const sparse::Coo w = graph::largest_component(data::make_sbm(p).w,
                                                 old_of_new);
  const SpectralConfig cfg = pipeline_config(10, 1);
  device::DeviceContext ctx1(1);
  const SpectralResult base = core::spectral_cluster_graph(w, cfg, &ctx1);
  ASSERT_TRUE(base.eig_converged);
  for (const usize workers : {3u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    device::DeviceContext ctx(workers);
    const SpectralResult r = core::spectral_cluster_graph(w, cfg, &ctx);
    expect_bitwise_equal(r.eigenvalues, base.eigenvalues, "eigenvalues");
    expect_bitwise_equal(r.embedding, base.embedding, "embedding");
    ASSERT_EQ(r.labels.size(), base.labels.size());
    EXPECT_EQ(std::memcmp(r.labels.data(), base.labels.data(),
                          base.labels.size() * sizeof(index_t)),
              0);
  }
}

// Points mode runs the same device pipeline: Algorithm 1 on device 0, the
// caller's context, then the eigensolver and k-means over the group, so a
// small DTI-like volume gives the same bits at every device count.
TEST(ShardedPipeline, PointsModeBitwiseAcrossDeviceCounts) {
  data::DtiParams p;
  p.nx = 10;
  p.ny = 10;
  p.nz = 8;
  p.profile_dim = 12;
  p.num_parcels = 6;
  p.seed = 5;
  const data::DtiVolume vol = data::make_dti_like(p);
  SpectralConfig cfg = pipeline_config(6, 1);
  const SpectralResult base = core::spectral_cluster_points(
      vol.profiles.data(), vol.n, vol.d, vol.edges, cfg);
  ASSERT_EQ(base.labels.size(), static_cast<usize>(vol.n));
  EXPECT_EQ(base.device_counters.bytes_d2d, 0u);
  for (const index_t nd : {2, 4}) {
    SCOPED_TRACE("num_devices=" + std::to_string(nd));
    cfg.num_devices = nd;
    const SpectralResult r = core::spectral_cluster_points(
        vol.profiles.data(), vol.n, vol.d, vol.edges, cfg);
    EXPECT_FALSE(r.degradation.degraded);
    expect_bitwise_equal(r.eigenvalues, base.eigenvalues, "eigenvalues");
    expect_bitwise_equal(r.embedding, base.embedding, "embedding");
    ASSERT_EQ(r.labels.size(), base.labels.size());
    EXPECT_EQ(std::memcmp(r.labels.data(), base.labels.data(),
                          base.labels.size() * sizeof(index_t)),
              0);
    EXPECT_GT(r.device_counters.bytes_d2d, 0u);
  }
}

// Root contexts with several workers, which every peer runs on: each
// device's csrmv hands its workers whole merge-path rows, so a hub-heavy
// powerlaw graph gives the single-device bits at every devices x workers
// point.
TEST(ShardedPipeline, WorkersPerDeviceGridMatchesSingleDevice) {
  std::vector<index_t> old_of_new;
  const sparse::Coo w = graph::largest_component(
      data::make_powerlaw({.n = 1500, .avg_degree = 10.0, .seed = 3}).w,
      old_of_new);
  const SpectralConfig cfg = pipeline_config(4, 1);
  const SpectralResult base = core::spectral_cluster_graph(w, cfg);
  ASSERT_TRUE(base.eig_converged);
  for (const usize nd : {2u, 4u}) {
    for (const usize workers : {1u, 3u}) {
      SCOPED_TRACE(std::to_string(nd) + " devices x " +
                   std::to_string(workers) + " workers");
      device::DeviceContext root(workers);
      const SpectralResult r = core::spectral_cluster_graph(
          w, pipeline_config(4, static_cast<index_t>(nd)), &root);
      expect_bitwise_equal(r.eigenvalues, base.eigenvalues, "eigenvalues");
      expect_bitwise_equal(r.embedding, base.embedding, "embedding");
      ASSERT_EQ(r.labels.size(), base.labels.size());
      EXPECT_EQ(std::memcmp(r.labels.data(), base.labels.data(),
                            base.labels.size() * sizeof(index_t)),
                0);
      EXPECT_GT(r.device_counters.bytes_d2d, 0u);
    }
  }
}

TEST(ShardedPipeline, LabelsInvariantUnderIterationCap) {
  // Stopping Lloyd early must not break the contract: the sweep protocol is
  // identical per iteration, so a capped run agrees at every device count.
  const data::SbmGraph g =
      data::make_social_graph(data::fb_like_params(600, 3, 1));
  SpectralConfig cfg = pipeline_config(3, 4);
  cfg.kmeans_max_iters = 2;  // force early stop; labels must still agree
  const SpectralResult a = core::spectral_cluster_graph(g.w, cfg);
  cfg.num_devices = 1;
  const SpectralResult b = core::spectral_cluster_graph(g.w, cfg);
  EXPECT_EQ(a.labels, b.labels);
}

// ---------------------------------------------------------------------------
// The caller's context is device 0 of a multi-device run and its peers are
// the other devices, so the caller's settings bind every device and each
// device's books stay where its work ran.

/// The giant component of a small FB-like graph: big enough that one
/// device's share of W overflows a 64 KiB budget.
sparse::Coo small_graph() {
  std::vector<index_t> old_of_new;
  return graph::largest_component(
      data::make_social_graph(data::fb_like_params(600, 4, 42)).w,
      old_of_new);
}

bool has_action(const SpectralResult& r, const std::string& action) {
  for (const core::DegradationEvent& e : r.degradation.events) {
    if (e.action == action) return true;
  }
  return false;
}

TEST(ShardedPipeline, CallerMemoryLimitBindsEveryDevice) {
  const sparse::Coo w = small_graph();
  for (const usize workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    device::DeviceContext ctx(workers);
    ctx.set_memory_limit(64 << 10);
    const SpectralResult r =
        core::spectral_cluster_graph(w, pipeline_config(4, 2), &ctx);
    EXPECT_TRUE(has_action(r, "single-device"));
    EXPECT_TRUE(has_action(r, "host-eigensolver"));
    EXPECT_EQ(r.labels.size(), static_cast<usize>(w.rows));
    for (const device::DeviceContext* d : ctx.devices()) {
      EXPECT_LE(d->counters_snapshot().peak_bytes, usize{64} << 10);
    }
  }
}

TEST(ShardedPipeline, CallerRetryPolicyBindsEveryDevice) {
  const sparse::Coo w = small_graph();
  for (const usize workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    device::DeviceContext ctx(workers);
    ctx.set_transfer_retry({.max_retries = 0, .backoff_seconds = 25e-6});
    SpectralConfig cfg = pipeline_config(4, 2);
    cfg.faults = fault::FaultPlan::parse("site=copy.h2d,nth=1");
    const SpectralResult r = core::spectral_cluster_graph(w, cfg, &ctx);
    EXPECT_TRUE(has_action(r, "single-device"));
    EXPECT_EQ(r.device_counters.transfer_retries, 0u);
    EXPECT_EQ(core::collect_attribution(ctx).device_totals.transfer_retries,
              0u);
  }
}

TEST(ShardedPipeline, CallerTimelineCoversItsOwnBooks) {
  const sparse::Coo w = small_graph();
  for (const usize workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    device::DeviceContext ctx(workers);
    const SpectralResult r =
        core::spectral_cluster_graph(w, pipeline_config(4, 2), &ctx);
    EXPECT_FALSE(r.degradation.degraded);
    const double now = ctx.virtual_now();
    EXPECT_GT(now, 0.0);
    // Busy time never exceeds the timeline it was laid on (up to the
    // rounding of two summation orders).
    EXPECT_LE(ctx.counters_snapshot().modeled_pipeline_seconds(),
              now * (1 + 1e-12));
  }
}

TEST(ShardedPipeline, ReportOnCallerCoversItsPeers) {
  const sparse::Coo w = small_graph();
  device::DeviceContext ctx(1);
  const SpectralResult r =
      core::spectral_cluster_graph(w, pipeline_config(4, 2), &ctx);
  ASSERT_GT(r.device_counters.bytes_d2d, 0u);
  EXPECT_EQ(core::collect_attribution(ctx).device_totals.bytes_d2d,
            r.device_counters.bytes_d2d);
}

}  // namespace
}  // namespace fastsc
