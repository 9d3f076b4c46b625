// Integration tests: the full 4-step pipeline across all three backends.
#include "core/spectral.h"

#include <gtest/gtest.h>

#include "core/report.h"
#include "data/dti.h"
#include "data/sbm.h"
#include "metrics/cut.h"
#include "metrics/external.h"
#include "sparse/convert.h"

#include <limits>

namespace fastsc::core {
namespace {

data::SbmGraph easy_sbm(index_t n, index_t k, std::uint64_t seed) {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(n, k);
  p.p_in = 0.4;
  p.p_out = 0.01;
  p.seed = seed;
  return data::make_sbm(p);
}

class PipelineBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(PipelineBackends, RecoversPlantedSbmPartition) {
  const data::SbmGraph g = easy_sbm(300, 3, 7);
  SpectralConfig cfg;
  cfg.num_clusters = 3;
  cfg.backend = GetParam();
  cfg.seed = 5;
  device::DeviceContext ctx(2);
  const SpectralResult result = spectral_cluster_graph(g.w, cfg, &ctx);

  EXPECT_TRUE(result.eig_converged);
  ASSERT_EQ(result.labels.size(), 300u);
  const real ari = metrics::adjusted_rand_index(result.labels, g.labels);
  EXPECT_GT(ari, 0.95) << backend_name(GetParam());
}

TEST_P(PipelineBackends, StageClockPopulated) {
  const data::SbmGraph g = easy_sbm(150, 2, 9);
  SpectralConfig cfg;
  cfg.num_clusters = 2;
  cfg.backend = GetParam();
  device::DeviceContext ctx(1);
  const SpectralResult result = spectral_cluster_graph(g.w, cfg, &ctx);
  EXPECT_GT(result.clock.seconds(kStageEigensolver), 0.0);
  EXPECT_GT(result.clock.seconds(kStageKmeans), 0.0);
  EXPECT_EQ(result.clock.seconds(kStageSimilarity), 0.0);  // graph mode
}

TEST_P(PipelineBackends, PointsModeRunsAllThreeStages) {
  data::DtiParams dp;
  dp.nx = 6;
  dp.ny = 6;
  dp.nz = 6;
  dp.profile_dim = 20;
  dp.num_parcels = 4;
  dp.epsilon = 1.0;
  dp.noise = 0.1;
  const data::DtiVolume vol = data::make_dti_like(dp);

  SpectralConfig cfg;
  cfg.num_clusters = 4;
  cfg.backend = GetParam();
  cfg.similarity.measure = graph::SimilarityMeasure::kCrossCorrelation;
  device::DeviceContext ctx(2);
  const SpectralResult result = spectral_cluster_points(
      vol.profiles.data(), vol.n, vol.d, vol.edges, cfg, &ctx);

  EXPECT_GT(result.clock.seconds(kStageSimilarity), 0.0);
  EXPECT_GT(result.clock.seconds(kStageEigensolver), 0.0);
  EXPECT_GT(result.clock.seconds(kStageKmeans), 0.0);
  ASSERT_EQ(result.labels.size(), static_cast<usize>(vol.n));
  // Parcels are spatial Voronoi + distinct profiles; expect decent recovery.
  const real nmi =
      metrics::normalized_mutual_information(result.labels, vol.labels);
  EXPECT_GT(nmi, 0.5) << backend_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, PipelineBackends,
                         ::testing::Values(Backend::kDevice,
                                           Backend::kMatlabLike,
                                           Backend::kPythonLike));

TEST(Pipeline, LeadingEigenvalueIsOne) {
  const data::SbmGraph g = easy_sbm(200, 2, 11);
  SpectralConfig cfg;
  cfg.num_clusters = 2;
  const SpectralResult result = spectral_cluster_graph(g.w, cfg);
  ASSERT_GE(result.eigenvalues.size(), 1u);
  EXPECT_NEAR(result.eigenvalues[0], 1.0, 1e-6);
}

TEST(Pipeline, EmbeddingHasExpectedShape) {
  const data::SbmGraph g = easy_sbm(120, 4, 13);
  SpectralConfig cfg;
  cfg.num_clusters = 4;
  const SpectralResult result = spectral_cluster_graph(g.w, cfg);
  EXPECT_EQ(result.embedding.size(), static_cast<usize>(120 * 4));
}

TEST(Pipeline, SpectralBeatsRandomNcut) {
  const data::SbmGraph g = easy_sbm(240, 4, 17);
  SpectralConfig cfg;
  cfg.num_clusters = 4;
  const SpectralResult result = spectral_cluster_graph(g.w, cfg);
  const sparse::Csr w = sparse::coo_to_csr(g.w);
  const real ncut_spectral =
      metrics::normalized_cut(w, result.labels, 4);
  Rng rng(23);
  std::vector<index_t> random_labels(240);
  real ncut_random = 0;
  for (int rep = 0; rep < 5; ++rep) {
    for (auto& l : random_labels) {
      l = static_cast<index_t>(rng.uniform_index(4));
    }
    ncut_random += metrics::normalized_cut(w, random_labels, 4);
  }
  ncut_random /= 5;
  EXPECT_LT(ncut_spectral, 0.8 * ncut_random);
}

TEST(Pipeline, DeviceCountersTrackEigensolverTraffic) {
  const data::SbmGraph g = easy_sbm(150, 3, 19);
  SpectralConfig cfg;
  cfg.num_clusters = 3;
  cfg.backend = Backend::kDevice;
  device::DeviceContext ctx(1);
  const SpectralResult result = spectral_cluster_graph(g.w, cfg, &ctx);
  const auto& c = result.device_counters;
  EXPECT_GT(c.bytes_h2d, 0u);
  EXPECT_GT(c.bytes_d2h, 0u);
  // RCI staging: at least one round trip per matvec.
  EXPECT_GE(c.transfers_h2d,
            static_cast<usize>(result.eig_stats.matvec_count));
  EXPECT_GT(c.modeled_transfer_seconds, 0.0);
  EXPECT_GT(c.kernel_launches, 0u);
}

TEST(Pipeline, HostBackendsLeaveDeviceUntouched) {
  const data::SbmGraph g = easy_sbm(100, 2, 23);
  SpectralConfig cfg;
  cfg.num_clusters = 2;
  cfg.backend = Backend::kMatlabLike;
  device::DeviceContext ctx(1);
  const SpectralResult result = spectral_cluster_graph(g.w, cfg, &ctx);
  EXPECT_EQ(result.device_counters.bytes_h2d, 0u);
  EXPECT_EQ(result.device_counters.kernel_launches, 0u);
}

TEST(Pipeline, AllBackendsAgreeOnQuality) {
  const data::SbmGraph g = easy_sbm(200, 4, 29);
  device::DeviceContext ctx(2);
  std::vector<real> aris;
  for (Backend b :
       {Backend::kDevice, Backend::kMatlabLike, Backend::kPythonLike}) {
    SpectralConfig cfg;
    cfg.num_clusters = 4;
    cfg.backend = b;
    cfg.seed = 31;
    const SpectralResult r = spectral_cluster_graph(g.w, cfg, &ctx);
    aris.push_back(metrics::adjusted_rand_index(r.labels, g.labels));
  }
  for (real a : aris) EXPECT_GT(a, 0.9);
}

TEST(Pipeline, RowNormalizedEmbeddingAlsoRecovers) {
  const data::SbmGraph g = easy_sbm(240, 3, 43);
  SpectralConfig cfg;
  cfg.num_clusters = 3;
  cfg.row_normalize_embedding = true;  // Ng-Jordan-Weiss variant
  const SpectralResult r = spectral_cluster_graph(g.w, cfg);
  EXPECT_GT(metrics::adjusted_rand_index(r.labels, g.labels), 0.95);
  // Embedding rows are unit length after the kmeans stage ran.
  for (index_t i = 0; i < r.n; ++i) {
    real norm2 = 0;
    for (index_t l = 0; l < r.k; ++l) {
      const real v = r.embedding[static_cast<usize>(i * r.k + l)];
      norm2 += v * v;
    }
    EXPECT_NEAR(norm2, 1.0, 1e-9);
  }
}

TEST(Pipeline, ChunkedSimilarityGivesSameClustering) {
  data::DtiParams dp;
  dp.nx = dp.ny = dp.nz = 6;
  dp.profile_dim = 16;
  dp.num_parcels = 4;
  dp.epsilon = 1.0;
  const data::DtiVolume vol = data::make_dti_like(dp);
  device::DeviceContext ctx(2);

  SpectralConfig cfg;
  cfg.num_clusters = 4;
  cfg.seed = 3;
  const SpectralResult full = spectral_cluster_points(
      vol.profiles.data(), vol.n, vol.d, vol.edges, cfg, &ctx);
  cfg.similarity_chunk_edges = 97;  // awkward chunk size on purpose
  const SpectralResult chunked = spectral_cluster_points(
      vol.profiles.data(), vol.n, vol.d, vol.edges, cfg, &ctx);
  EXPECT_EQ(full.labels, chunked.labels);
  ASSERT_EQ(full.eigenvalues.size(), chunked.eigenvalues.size());
  for (usize i = 0; i < full.eigenvalues.size(); ++i) {
    EXPECT_NEAR(full.eigenvalues[i], chunked.eigenvalues[i], 1e-10);
  }
}

TEST(Pipeline, RejectsNonFiniteInputs) {
  // Failure injection: NaN in points and Inf in weights must be rejected
  // up front, not surface as mysterious non-convergence.
  std::vector<real> x(20, 1.0);
  x[7] = std::numeric_limits<real>::quiet_NaN();
  graph::EdgeList edges;
  for (index_t i = 0; i + 1 < 10; ++i) edges.push(i, i + 1);
  SpectralConfig cfg;
  cfg.num_clusters = 2;
  EXPECT_THROW((void)spectral_cluster_points(x.data(), 10, 2, edges, cfg),
               std::invalid_argument);

  sparse::Coo w(4, 4);
  w.push(0, 1, std::numeric_limits<real>::infinity());
  w.push(1, 0, 1.0);
  EXPECT_THROW((void)spectral_cluster_graph(w, cfg), std::invalid_argument);
}

TEST(Pipeline, ValidatesArguments) {
  const data::SbmGraph g = easy_sbm(50, 2, 37);
  SpectralConfig cfg;
  cfg.num_clusters = 0;
  EXPECT_THROW((void)spectral_cluster_graph(g.w, cfg), std::invalid_argument);
  cfg.num_clusters = 51;
  EXPECT_THROW((void)spectral_cluster_graph(g.w, cfg), std::invalid_argument);
  sparse::Coo not_square(3, 4);
  cfg.num_clusters = 2;
  EXPECT_THROW((void)spectral_cluster_graph(not_square, cfg),
               std::invalid_argument);
}

TEST(Report, StageTableContainsBackendsAndStages) {
  const data::SbmGraph g = easy_sbm(100, 2, 41);
  device::DeviceContext ctx(1);
  BackendRuns runs;
  runs.dataset = "test";
  runs.nodes = 100;
  runs.edges = g.w.nnz();
  runs.clusters = 2;
  for (Backend b : {Backend::kDevice, Backend::kMatlabLike}) {
    SpectralConfig cfg;
    cfg.num_clusters = 2;
    cfg.backend = b;
    runs.runs.emplace_back(b, spectral_cluster_graph(g.w, cfg, &ctx));
  }
  const std::string table = stage_table(runs, false).to_string();
  EXPECT_NE(table.find("CUDA"), std::string::npos);
  EXPECT_NE(table.find("Matlab"), std::string::npos);
  EXPECT_NE(table.find("Sparse Eigensolver"), std::string::npos);
  EXPECT_NE(table.find("K-means"), std::string::npos);

  const std::string comm = communication_table({runs}).to_string();
  EXPECT_NE(comm.find("test"), std::string::npos);

  const std::string quality =
      quality_table(runs, g.labels, sparse::coo_to_csr(g.w)).to_string();
  EXPECT_NE(quality.find("ARI"), std::string::npos);
}

}  // namespace
}  // namespace fastsc::core
