// Property-based sweeps over randomized inputs: invariants that must hold
// for any valid input, exercised across a parameter grid.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "data/sbm.h"
#include "core/spectral.h"
#include "graph/laplacian.h"
#include "kmeans/lloyd.h"
#include "lanczos/rci.h"
#include "metrics/external.h"
#include "sparse/convert.h"
#include "sparse/ops.h"
#include "sparse/spmv.h"

namespace fastsc {
namespace {

// ---------------------------------------------------------------------------
// SpMV linearity: A(ax + by) == a Ax + b Ay for every format.
// ---------------------------------------------------------------------------

class SpmvLinearity : public ::testing::TestWithParam<int> {};

TEST_P(SpmvLinearity, HoldsForRandomMatrices) {
  const index_t n = 60;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  sparse::Coo coo(n, n);
  for (int e = 0; e < 400; ++e) {
    coo.push(static_cast<index_t>(rng.uniform_index(n)),
             static_cast<index_t>(rng.uniform_index(n)),
             rng.uniform(-1, 1));
  }
  sparse::sort_and_merge(coo);
  const sparse::Csr csr = sparse::coo_to_csr(coo);

  std::vector<real> x(n), y(n), combo(n);
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<usize>(i)] = rng.uniform(-1, 1);
    y[static_cast<usize>(i)] = rng.uniform(-1, 1);
  }
  const real a = rng.uniform(-2, 2), b = rng.uniform(-2, 2);
  for (index_t i = 0; i < n; ++i) {
    combo[static_cast<usize>(i)] =
        a * x[static_cast<usize>(i)] + b * y[static_cast<usize>(i)];
  }
  std::vector<real> ax(n), ay(n), acombo(n);
  sparse::csr_mv(csr, x.data(), ax.data());
  sparse::csr_mv(csr, y.data(), ay.data());
  sparse::csr_mv(csr, combo.data(), acombo.data());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(acombo[static_cast<usize>(i)],
                a * ax[static_cast<usize>(i)] + b * ay[static_cast<usize>(i)],
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmvLinearity, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Random-walk operator: rows sum to 1 and the spectrum lies in [-1, 1].
// ---------------------------------------------------------------------------

class RowStochastic
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RowStochastic, SpectrumInUnitInterval) {
  const auto [n_blocks, seed] = GetParam();
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(40 * n_blocks, n_blocks);
  p.p_in = 0.5;
  p.p_out = 0.05;
  p.seed = static_cast<std::uint64_t>(seed);
  const data::SbmGraph g = data::make_sbm(p);
  const sparse::Csr rw = graph::normalized_rw_host(g.w);

  const auto sums = sparse::row_sums(rw);
  for (real s : sums) EXPECT_NEAR(s, 1.0, 1e-12);

  // The spectrum of D^-1 W equals that of the symmetric S = D^-1/2 W D^-1/2;
  // the Lanczos iteration requires the symmetric form.
  std::vector<real> isd;
  const sparse::Csr sym = graph::sym_normalized_host(g.w, isd);
  lanczos::LanczosConfig cfg;
  cfg.n = sym.rows;
  cfg.nev = std::min<index_t>(n_blocks + 1, sym.rows - 2);
  cfg.which = lanczos::EigWhich::kLargestAlgebraic;
  const auto eig = lanczos::solve_symmetric(
      cfg, [&](const real* x, real* y) { sparse::csr_mv(sym, x, y); });
  for (real lam : eig.eigenvalues) {
    EXPECT_LE(lam, 1.0 + 1e-8);
    EXPECT_GE(lam, -1.0 - 1e-8);
  }
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Grid, RowStochastic,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Eigenresidual property: for any symmetric matrix and any requested nev,
// every returned pair satisfies ||Av - lambda v|| <= 100 * tol * ||A||.
// ---------------------------------------------------------------------------

class EigenResidual
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EigenResidual, HoldsAcrossSizes) {
  const auto [n, nev] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 31 + nev));
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
  const real norm_est = sparse::inf_norm(a);

  lanczos::LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = nev;
  cfg.tol = 1e-9;
  const auto eig = lanczos::solve_symmetric(
      cfg, [&](const real* x, real* y) { sparse::csr_mv(a, x, y); });
  ASSERT_TRUE(eig.converged);

  std::vector<real> av(static_cast<usize>(n));
  for (index_t k = 0; k < nev; ++k) {
    const real* v = eig.eigenvectors.data() + k * n;
    sparse::csr_mv(a, v, av.data());
    real worst = 0;
    for (index_t i = 0; i < n; ++i) {
      worst = std::max(
          worst, std::fabs(av[static_cast<usize>(i)] -
                           eig.eigenvalues[static_cast<usize>(k)] * v[i]));
    }
    EXPECT_LE(worst, 100 * cfg.tol * std::max<real>(norm_est, 1.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EigenResidual,
    ::testing::Combine(::testing::Values(40, 90, 160),
                       ::testing::Values(1, 4, 9)));

// ---------------------------------------------------------------------------
// k-means invariants: labels partition the data and the objective never
// exceeds the single-cluster (total variance) objective.
// ---------------------------------------------------------------------------

class KmeansInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KmeansInvariants, ObjectiveBoundedByTotalVariance) {
  const auto [n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n + k * 1000));
  const index_t d = 5;
  std::vector<real> x(static_cast<usize>(n * d));
  for (real& v : x) v = rng.uniform(-3, 3);

  kmeans::KmeansConfig cfg;
  cfg.k = k;
  cfg.seed = 7;
  const auto r = kmeans::kmeans_lloyd_host(x.data(), n, d, cfg);

  // Single-cluster objective = total squared deviation from the mean.
  std::vector<real> mean(static_cast<usize>(d), 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t l = 0; l < d; ++l) {
      mean[static_cast<usize>(l)] += x[static_cast<usize>(i * d + l)];
    }
  }
  for (real& m : mean) m /= static_cast<real>(n);
  real total = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t l = 0; l < d; ++l) {
      const real delta =
          x[static_cast<usize>(i * d + l)] - mean[static_cast<usize>(l)];
      total += delta * delta;
    }
  }
  EXPECT_LE(r.objective, total + 1e-9);
  // Labels form a partition into at most k parts.
  for (index_t l : r.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, k);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, KmeansInvariants,
                         ::testing::Combine(::testing::Values(50, 200),
                                            ::testing::Values(2, 5, 10)));

// ---------------------------------------------------------------------------
// Operator-scaling equivariance: eigenvalues of c*A are c*eig(A), same
// eigenvectors (checked via identical k-means-ready embeddings up to sign).
// ---------------------------------------------------------------------------

class ScalingEquivariance : public ::testing::TestWithParam<int> {};

TEST_P(ScalingEquivariance, EigenvaluesScaleLinearly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  const index_t n = 80;
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
  const real c = rng.uniform(0.5, 4.0);

  lanczos::LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 3;
  cfg.tol = 1e-10;
  const auto base = lanczos::solve_symmetric(
      cfg, [&](const real* x, real* y) { sparse::csr_mv(a, x, y); });
  const auto scaled = lanczos::solve_symmetric(
      cfg, [&](const real* x, real* y) { sparse::csr_mv(a, x, y, c); });
  ASSERT_TRUE(base.converged && scaled.converged);
  for (usize i = 0; i < 3; ++i) {
    EXPECT_NEAR(scaled.eigenvalues[i], c * base.eigenvalues[i],
                1e-7 * std::max<real>(1.0, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScalingEquivariance, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// Spectral-shift equivariance: eig(A + cI) = eig(A) + c, identical ordering
// for largest-algebraic.
// ---------------------------------------------------------------------------

class ShiftEquivariance : public ::testing::TestWithParam<int> {};

TEST_P(ShiftEquivariance, EigenvaluesShiftByConstant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 11 + 1);
  const index_t n = 70;
  sparse::Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.push(i, i, rng.uniform(-1, 1));
    const auto j = static_cast<index_t>(rng.uniform_index(n));
    if (j != i) {
      const real v = rng.uniform(-1, 1);
      coo.push(i, j, v);
      coo.push(j, i, v);
    }
  }
  sparse::sort_and_merge(coo);
  const sparse::Csr a = sparse::coo_to_csr(coo);
  const real c = rng.uniform(-3, 3);

  lanczos::LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 4;
  cfg.tol = 1e-10;
  const auto base = lanczos::solve_symmetric(
      cfg, [&](const real* x, real* y) { sparse::csr_mv(a, x, y); });
  const auto shifted = lanczos::solve_symmetric(
      cfg, [&](const real* x, real* y) {
        sparse::csr_mv(a, x, y);
        for (index_t i = 0; i < n; ++i) y[i] += c * x[i];
      });
  ASSERT_TRUE(base.converged && shifted.converged);
  for (usize i = 0; i < 4; ++i) {
    EXPECT_NEAR(shifted.eigenvalues[i], base.eigenvalues[i] + c, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShiftEquivariance, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// Graph-permutation invariance: relabeling the vertices permutes the
// clustering but preserves every quality metric.
// ---------------------------------------------------------------------------

class PermutationInvariance : public ::testing::TestWithParam<int> {};

TEST_P(PermutationInvariance, NcutAndAriUnchanged) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 5);
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(150, 3);
  p.p_in = 0.4;
  p.p_out = 0.02;
  p.seed = static_cast<std::uint64_t>(GetParam());
  const data::SbmGraph g = data::make_sbm(p);
  const index_t n = g.w.rows;

  // Random permutation pi.
  std::vector<index_t> pi(static_cast<usize>(n));
  for (index_t i = 0; i < n; ++i) pi[static_cast<usize>(i)] = i;
  for (index_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<index_t>(
        rng.uniform_index(static_cast<std::uint64_t>(i + 1)));
    std::swap(pi[static_cast<usize>(i)], pi[static_cast<usize>(j)]);
  }
  sparse::Coo permuted(n, n);
  for (usize e = 0; e < g.w.values.size(); ++e) {
    permuted.push(pi[static_cast<usize>(g.w.row_idx[e])],
                  pi[static_cast<usize>(g.w.col_idx[e])], g.w.values[e]);
  }
  std::vector<index_t> truth_permuted(static_cast<usize>(n));
  for (index_t i = 0; i < n; ++i) {
    truth_permuted[static_cast<usize>(pi[static_cast<usize>(i)])] =
        g.labels[static_cast<usize>(i)];
  }

  core::SpectralConfig cfg;
  cfg.num_clusters = 3;
  cfg.seed = 9;
  const auto base = core::spectral_cluster_graph(g.w, cfg);
  const auto perm = core::spectral_cluster_graph(permuted, cfg);
  const real ari_base = metrics::adjusted_rand_index(base.labels, g.labels);
  const real ari_perm =
      metrics::adjusted_rand_index(perm.labels, truth_permuted);
  // Both runs must recover the (same) planted structure.
  EXPECT_GT(ari_base, 0.95);
  EXPECT_GT(ari_perm, 0.95);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationInvariance, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// k-means translation invariance: shifting every point by a constant vector
// leaves the labels and the objective unchanged.
// ---------------------------------------------------------------------------

class KmeansTranslation : public ::testing::TestWithParam<int> {};

TEST_P(KmeansTranslation, LabelsAndObjectiveUnchanged) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 9);
  const index_t n = 150, d = 4;
  std::vector<real> x(static_cast<usize>(n * d));
  for (real& v : x) v = rng.uniform(-2, 2);
  std::vector<real> shifted = x;
  std::vector<real> offset(static_cast<usize>(d));
  for (real& v : offset) v = rng.uniform(-50, 50);
  for (index_t i = 0; i < n; ++i) {
    for (index_t l = 0; l < d; ++l) {
      shifted[static_cast<usize>(i * d + l)] += offset[static_cast<usize>(l)];
    }
  }
  kmeans::KmeansConfig cfg;
  cfg.k = 4;
  cfg.seed = 17;
  const auto base = kmeans::kmeans_lloyd_host(x.data(), n, d, cfg);
  const auto moved = kmeans::kmeans_lloyd_host(shifted.data(), n, d, cfg);
  EXPECT_EQ(base.labels, moved.labels);
  EXPECT_NEAR(base.objective, moved.objective,
              1e-6 * std::max<real>(1.0, base.objective));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmeansTranslation, ::testing::Range(0, 5));

// ---------------------------------------------------------------------------
// ARI/NMI symmetry and permutation invariance on random partitions.
// ---------------------------------------------------------------------------

class MetricInvariance : public ::testing::TestWithParam<int> {};

TEST_P(MetricInvariance, SymmetricAndRelabelInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const usize n = 300;
  std::vector<index_t> a(n), b(n);
  for (usize i = 0; i < n; ++i) {
    a[i] = static_cast<index_t>(rng.uniform_index(6));
    b[i] = static_cast<index_t>(rng.uniform_index(4));
  }
  EXPECT_NEAR(metrics::adjusted_rand_index(a, b),
              metrics::adjusted_rand_index(b, a), 1e-12);
  EXPECT_NEAR(metrics::normalized_mutual_information(a, b),
              metrics::normalized_mutual_information(b, a), 1e-12);
  // Relabel a by a fixed permutation: metrics unchanged.
  std::vector<index_t> perm{3, 5, 0, 1, 4, 2};
  std::vector<index_t> a2(n);
  for (usize i = 0; i < n; ++i) a2[i] = perm[static_cast<usize>(a[i])];
  EXPECT_NEAR(metrics::adjusted_rand_index(a, b),
              metrics::adjusted_rand_index(a2, b), 1e-12);
  EXPECT_NEAR(metrics::normalized_mutual_information(a, b),
              metrics::normalized_mutual_information(a2, b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricInvariance, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Conversion chain: COO -> CSR -> transpose twice -> COO -> CSR preserves
// the matrix exactly (as dense) for random inputs.
// ---------------------------------------------------------------------------

class ConversionChain : public ::testing::TestWithParam<int> {};

TEST_P(ConversionChain, LongChainIsLossless) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 1);
  const index_t n = 37;
  sparse::Coo coo(n, n);
  for (int e = 0; e < 300; ++e) {
    coo.push(static_cast<index_t>(rng.uniform_index(n)),
             static_cast<index_t>(rng.uniform_index(n)),
             rng.uniform(-1, 1));
  }
  sparse::sort_and_merge(coo);
  const sparse::Csr c1 = sparse::coo_to_csr(coo);
  const sparse::Csr c2 = sparse::transpose(sparse::transpose(c1));
  const sparse::Csr c3 = sparse::coo_to_csr(sparse::csr_to_coo(c2));
  std::vector<real> d1(static_cast<usize>(n) * static_cast<usize>(n));
  std::vector<real> d3(d1.size());
  sparse::csr_to_dense(c1, d1.data());
  sparse::csr_to_dense(c3, d3.data());
  for (usize i = 0; i < d1.size(); ++i) EXPECT_NEAR(d1[i], d3[i], 1e-14);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConversionChain, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Randomized format round trips and transposes on rectangular matrices with
// empty rows, empty columns and duplicate entries; the second grid axis is
// the period of the injected duplicates.  The dense accumulation of the raw
// pushes is the ground truth for every representation.
// ---------------------------------------------------------------------------

class SparseRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SparseRoundTrip, EveryFormatPreservesTheMatrix) {
  const auto [seed, dup_period] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 101 + 7);
  const index_t rows = 29, cols = 41;
  std::vector<real> dense(static_cast<usize>(rows) * static_cast<usize>(cols),
                          0.0);
  sparse::Coo coo(rows, cols);
  for (int e = 0; e < 250; ++e) {
    // Skip a band of rows and columns so some stay entirely empty; positive
    // values so duplicate coalescing can never cancel an entry to zero.
    const auto i = static_cast<index_t>(rng.uniform_index(rows));
    const auto j = static_cast<index_t>(rng.uniform_index(cols));
    if (i % 7 == 3 || j % 11 == 5) continue;
    const real v = rng.uniform(0.1, 1.0);
    coo.push(i, j, v);
    dense[static_cast<usize>(i * cols + j)] += v;
    if (e % dup_period == 0) {  // duplicates for sort_and_merge to coalesce
      coo.push(i, j, v);
      dense[static_cast<usize>(i * cols + j)] += v;
    }
  }
  sparse::sort_and_merge(coo);

  // COO is strictly sorted with no duplicates after the merge.
  for (usize e = 1; e < coo.values.size(); ++e) {
    const bool ordered =
        coo.row_idx[e - 1] < coo.row_idx[e] ||
        (coo.row_idx[e - 1] == coo.row_idx[e] &&
         coo.col_idx[e - 1] < coo.col_idx[e]);
    EXPECT_TRUE(ordered);
  }

  const sparse::Csr csr = sparse::coo_to_csr(coo);
  auto expect_dense = [&](const sparse::Csr& m, const char* what) {
    ASSERT_EQ(m.rows, rows) << what;
    ASSERT_EQ(m.cols, cols) << what;
    std::vector<real> d(dense.size());
    sparse::csr_to_dense(m, d.data());
    for (usize i = 0; i < dense.size(); ++i) {
      ASSERT_NEAR(d[i], dense[i], 1e-13) << what << " at flat index " << i;
    }
  };
  expect_dense(csr, "coo_to_csr");

  // COO <-> CSR: an exact structural round trip.
  const sparse::Coo coo2 = sparse::csr_to_coo(csr);
  EXPECT_EQ(coo2.row_idx, coo.row_idx);
  EXPECT_EQ(coo2.col_idx, coo.col_idx);
  EXPECT_EQ(coo2.values, coo.values);

  // Transpose: entry (j, i) of A^T is entry (i, j) of A, the empty rows of
  // A become empty columns and vice versa.
  const sparse::Csr t = sparse::transpose(csr);
  ASSERT_EQ(t.rows, cols);
  ASSERT_EQ(t.cols, rows);
  EXPECT_NO_THROW(t.validate());
  std::vector<real> dt(dense.size());
  sparse::csr_to_dense(t, dt.data());
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) {
      ASSERT_NEAR(dt[static_cast<usize>(j * rows + i)],
                  dense[static_cast<usize>(i * cols + j)], 1e-13)
          << "transpose at (" << j << ", " << i << ")";
    }
  }

  // Transposing twice restores the column-sorted CSR exactly.
  const sparse::Csr tt = sparse::transpose(t);
  EXPECT_EQ(tt.row_ptr, csr.row_ptr);
  EXPECT_EQ(tt.col_idx, csr.col_idx);
  EXPECT_EQ(tt.values, csr.values);

  // Dense round trip keeps the nnz structure (no spurious entries).
  const sparse::Csr redensed = sparse::dense_to_csr(rows, cols, dense.data());
  EXPECT_EQ(redensed.values.size(), csr.values.size());
  expect_dense(redensed, "dense_to_csr");
}

INSTANTIATE_TEST_SUITE_P(Grid, SparseRoundTrip,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 3, 4, 5)));

TEST(SparseRoundTrip, EmptyMatrixSurvivesEveryConversion) {
  sparse::Coo coo(6, 9);
  sparse::sort_and_merge(coo);
  const sparse::Csr csr = sparse::coo_to_csr(coo);
  EXPECT_EQ(csr.values.size(), 0u);
  EXPECT_EQ(sparse::csr_to_coo(csr).values.size(), 0u);
  const sparse::Csr t = sparse::transpose(csr);
  EXPECT_EQ(t.rows, 9);
  EXPECT_EQ(t.cols, 6);
  EXPECT_EQ(t.values.size(), 0u);
  const sparse::Csr back = sparse::transpose(t);
  EXPECT_EQ(back.rows, 6);
  EXPECT_EQ(back.cols, 9);
  EXPECT_EQ(back.row_ptr, csr.row_ptr);
  EXPECT_EQ(back.values.size(), 0u);
}

}  // namespace
}  // namespace fastsc
