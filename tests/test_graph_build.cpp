#include "graph/build.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sparse/convert.h"
#include "sparse/ops.h"
#include "sparse/spmv.h"

namespace fastsc::graph {
namespace {

struct PointSet {
  std::vector<real> x;  // n x d
  index_t n, d;
};

PointSet random_points(index_t n, index_t d, std::uint64_t seed) {
  PointSet ps;
  ps.n = n;
  ps.d = d;
  ps.x.resize(static_cast<usize>(n) * static_cast<usize>(d));
  Rng rng(seed);
  for (real& v : ps.x) v = rng.uniform(-1, 1);
  return ps;
}

EdgeList all_pairs(index_t n) {
  EdgeList e;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j) e.push(i, j);
  }
  return e;
}

TEST(Symmetrized, MirrorsEveryEdge) {
  EdgeList e;
  e.push(0, 1);
  e.push(2, 3);
  const EdgeList s = symmetrized(e);
  ASSERT_EQ(s.size(), 4);
  EXPECT_EQ(s.u[1], 1);
  EXPECT_EQ(s.v[1], 0);
  EXPECT_EQ(s.u[3], 3);
  EXPECT_EQ(s.v[3], 2);
}

TEST(BuildEpsilonEdges, FindsLatticeNeighbors) {
  std::vector<real> pos{0, 0, 0, 1, 0, 0, 0, 1, 0, 5, 5, 5};
  const EdgeList edges = build_epsilon_edges_3d(pos.data(), 4, 1.1);
  EXPECT_EQ(edges.size(), 2);  // (0,1) and (0,2)
}

TEST(BuildSimilarityHost, ValuesMatchDirectComputation) {
  const PointSet ps = random_points(12, 8, 3);
  const EdgeList edges = symmetrized(all_pairs(ps.n));
  SimilarityParams params{SimilarityMeasure::kCrossCorrelation};
  const sparse::Coo coo =
      build_similarity_host(ps.x.data(), ps.n, ps.d, edges, params,
                            /*clamp_nonpositive=*/false);
  ASSERT_EQ(coo.nnz(), edges.size());
  for (index_t e = 0; e < coo.nnz(); ++e) {
    const real direct = similarity_direct(
        ps.x.data() + coo.row_idx[static_cast<usize>(e)] * ps.d,
        ps.x.data() + coo.col_idx[static_cast<usize>(e)] * ps.d, ps.d, params);
    EXPECT_NEAR(coo.values[static_cast<usize>(e)], direct, 1e-10);
  }
}

TEST(BuildSimilarityHost, ClampFloorsNonPositives) {
  // Anti-correlated pair would get similarity -1; the clamp floors it.
  std::vector<real> x{1, 2, 3, 3, 2, 1};
  EdgeList edges;
  edges.push(0, 1);
  SimilarityParams params{SimilarityMeasure::kCrossCorrelation};
  const sparse::Coo coo =
      build_similarity_host(x.data(), 2, 3, symmetrized(edges), params, true);
  for (real v : coo.values) EXPECT_GT(v, 0.0);
}

class DeviceSimilarity : public ::testing::TestWithParam<SimilarityMeasure> {
 protected:
  device::DeviceContext ctx_{2};
};

TEST_P(DeviceSimilarity, MatchesHostPath) {
  const PointSet ps = random_points(30, 16, 11);
  const EdgeList edges = symmetrized(all_pairs(ps.n));
  SimilarityParams params;
  params.measure = GetParam();
  params.sigma = 1.3;

  const sparse::Coo host =
      build_similarity_host(ps.x.data(), ps.n, ps.d, edges, params);
  sparse::DeviceCoo dev = build_similarity_device(ctx_, ps.x.data(), ps.n,
                                                  ps.d, edges, params);
  const sparse::Coo got = dev.to_host();
  ASSERT_EQ(got.nnz(), host.nnz());
  EXPECT_EQ(got.row_idx, host.row_idx);
  EXPECT_EQ(got.col_idx, host.col_idx);
  for (usize e = 0; e < got.values.size(); ++e) {
    EXPECT_NEAR(got.values[e], host.values[e], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, DeviceSimilarity,
                         ::testing::Values(SimilarityMeasure::kCosine,
                                           SimilarityMeasure::kCrossCorrelation,
                                           SimilarityMeasure::kExpDecay));

TEST(DeviceSimilarityMeters, TransfersInputData) {
  device::DeviceContext ctx(1);
  const PointSet ps = random_points(10, 5, 17);
  const EdgeList edges = symmetrized(all_pairs(ps.n));
  (void)build_similarity_device(ctx, ps.x.data(), ps.n, ps.d, edges,
                                SimilarityParams{});
  // X (n*d reals) plus two index arrays must have crossed the link.
  EXPECT_GE(ctx.counters().bytes_h2d,
            static_cast<usize>(ps.n * ps.d) * sizeof(real));
  EXPECT_GE(ctx.counters().kernel_launches, 3u);  // the three kernels
}

TEST(ChunkedSimilarity, MatchesUnchunkedBitForBit) {
  device::DeviceContext ctx(2);
  const PointSet ps = random_points(25, 12, 31);
  const EdgeList edges = symmetrized(all_pairs(ps.n));
  SimilarityParams params{SimilarityMeasure::kCrossCorrelation};
  sparse::DeviceCoo full =
      build_similarity_device(ctx, ps.x.data(), ps.n, ps.d, edges, params);
  const sparse::Coo full_host = full.to_host();
  for (index_t chunk : {1, 7, 100, 100000}) {
    const sparse::Coo chunked = build_similarity_device_chunked(
        ctx, ps.x.data(), ps.n, ps.d, edges, params, chunk);
    ASSERT_EQ(chunked.nnz(), full_host.nnz()) << "chunk " << chunk;
    EXPECT_EQ(chunked.row_idx, full_host.row_idx);
    EXPECT_EQ(chunked.col_idx, full_host.col_idx);
    EXPECT_EQ(chunked.values, full_host.values) << "chunk " << chunk;
  }
}

TEST(ChunkedSimilarity, FitsUnderMemoryBudgetWhereFullBuildCannot) {
  const PointSet ps = random_points(50, 8, 37);
  const EdgeList edges = symmetrized(all_pairs(ps.n));  // 2450 edges
  SimilarityParams params{SimilarityMeasure::kExpDecay, 1.0};

  // Budget: X + stats + a small chunk, but far below the full edge list.
  const usize budget = static_cast<usize>(ps.n * ps.d) * sizeof(real) +
                       2 * static_cast<usize>(ps.n) * sizeof(real) +
                       3000;  // room for ~125-edge chunks
  device::DeviceContext ctx(1);
  ctx.set_memory_limit(budget);
  EXPECT_THROW((void)build_similarity_device(ctx, ps.x.data(), ps.n, ps.d,
                                             edges, params),
               device::DeviceOutOfMemory);
  ctx.counters().reset();
  const sparse::Coo chunked = build_similarity_device_chunked(
      ctx, ps.x.data(), ps.n, ps.d, edges, params, /*chunk_edges=*/100);
  EXPECT_EQ(chunked.nnz(), edges.size());
  EXPECT_LE(ctx.counters().peak_bytes, budget);
  // Values must still match the host reference.
  const sparse::Coo host =
      build_similarity_host(ps.x.data(), ps.n, ps.d, edges, params);
  for (usize e = 0; e < host.values.size(); ++e) {
    EXPECT_NEAR(chunked.values[e], host.values[e], 1e-12);
  }
}

TEST(ChunkedSimilarity, RejectsBadChunkSize) {
  device::DeviceContext ctx(1);
  const PointSet ps = random_points(4, 2, 41);
  const EdgeList edges = symmetrized(all_pairs(ps.n));
  EXPECT_THROW((void)build_similarity_device_chunked(
                   ctx, ps.x.data(), ps.n, ps.d, edges, SimilarityParams{}, 0),
               std::invalid_argument);
}

TEST(KnnGraph, DegreesAtLeastK) {
  const PointSet ps = random_points(40, 4, 23);
  SimilarityParams params{SimilarityMeasure::kExpDecay, 1.0};
  const sparse::Coo coo = build_knn_graph(ps.x.data(), ps.n, ps.d, 3, params);
  const sparse::Csr csr = sparse::coo_to_csr(coo);
  for (index_t i = 0; i < ps.n; ++i) {
    EXPECT_GE(csr.row_nnz(i), 3);  // union rule only adds edges
  }
  EXPECT_TRUE(sparse::is_symmetric(csr, 1e-12));
}

TEST(KnnGraph, RejectsBadK) {
  const PointSet ps = random_points(5, 2, 29);
  EXPECT_THROW(
      (void)build_knn_graph(ps.x.data(), ps.n, ps.d, 0, SimilarityParams{}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)build_knn_graph(ps.x.data(), ps.n, ps.d, 5, SimilarityParams{}),
      std::invalid_argument);
}

TEST(ThresholdGraph, KeepsOnlyStrongPairs) {
  // Two tight groups far apart: cross-group RBF similarity is tiny.
  std::vector<real> x{0, 0.1, 0, 10, 10.1, 10};
  SimilarityParams params{SimilarityMeasure::kExpDecay, 1.0};
  const sparse::Coo coo = build_threshold_graph(x.data(), 6, 1, 0.5, params);
  const sparse::Csr csr = sparse::coo_to_csr(coo);
  EXPECT_GT(csr.at(0, 1), 0.5);
  EXPECT_EQ(csr.at(0, 3), 0.0);
  EXPECT_TRUE(sparse::is_symmetric(csr, 1e-12));
}

TEST(RemoveIsolated, CompactsIndices) {
  sparse::Coo w(5, 5);
  w.push(1, 3, 1.0);
  w.push(3, 1, 1.0);
  std::vector<index_t> old_of_new;
  const sparse::Coo out = remove_isolated(w, old_of_new);
  EXPECT_EQ(out.rows, 2);
  EXPECT_EQ(old_of_new, (std::vector<index_t>{1, 3}));
  EXPECT_EQ(out.nnz(), 2);
  EXPECT_EQ(out.row_idx[0], 0);
  EXPECT_EQ(out.col_idx[0], 1);
}

TEST(RemoveIsolated, NoIsolatedIsIdentityMapping) {
  sparse::Coo w(2, 2);
  w.push(0, 1, 1.0);
  w.push(1, 0, 1.0);
  std::vector<index_t> old_of_new;
  const sparse::Coo out = remove_isolated(w, old_of_new);
  EXPECT_EQ(out.rows, 2);
  EXPECT_EQ(old_of_new, (std::vector<index_t>{0, 1}));
}

}  // namespace
}  // namespace fastsc::graph
