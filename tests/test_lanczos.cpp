#include "lanczos/irlm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "lanczos/dense_eig.h"
#include "lanczos/rci.h"

namespace fastsc::lanczos {
namespace {

std::vector<real> random_sparse_symmetric(index_t n, index_t per_row,
                                          Rng& rng) {
  std::vector<real> a(static_cast<usize>(n) * static_cast<usize>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    a[static_cast<usize>(i * n + i)] = rng.uniform(0, 2);
    for (index_t t = 0; t < per_row; ++t) {
      const auto j = static_cast<index_t>(
          rng.uniform_index(static_cast<std::uint64_t>(n)));
      const real v = rng.uniform(-0.5, 0.5);
      a[static_cast<usize>(i * n + j)] += v;
      a[static_cast<usize>(j * n + i)] += v;
    }
  }
  return a;
}

SymEigResult solve_dense_matrix(const std::vector<real>& a, index_t n,
                                LanczosConfig cfg) {
  cfg.n = n;
  return solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) {
      real acc = 0;
      for (index_t j = 0; j < n; ++j) {
        acc += a[static_cast<usize>(i * n + j)] * x[j];
      }
      y[i] = acc;
    }
  });
}

TEST(Lanczos, RejectsBadConfig) {
  LanczosConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(SymLanczos{cfg}, std::invalid_argument);
  cfg.n = 5;
  cfg.nev = 0;
  EXPECT_THROW(SymLanczos{cfg}, std::invalid_argument);
  cfg.nev = 6;
  EXPECT_THROW(SymLanczos{cfg}, std::invalid_argument);
}

TEST(Lanczos, DiagonalMatrixLargestAlgebraic) {
  const index_t n = 100;
  LanczosConfig cfg;
  cfg.nev = 4;
  cfg.n = n;
  cfg.which = EigWhich::kLargestAlgebraic;
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = static_cast<real>(i + 1) * x[i];
  });
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.eigenvalues.size(), 4u);
  EXPECT_NEAR(result.eigenvalues[0], 100, 1e-8);
  EXPECT_NEAR(result.eigenvalues[1], 99, 1e-8);
  EXPECT_NEAR(result.eigenvalues[2], 98, 1e-8);
  EXPECT_NEAR(result.eigenvalues[3], 97, 1e-8);
}

TEST(Lanczos, DiagonalMatrixSmallestAlgebraic) {
  const index_t n = 80;
  LanczosConfig cfg;
  cfg.nev = 3;
  cfg.n = n;
  cfg.which = EigWhich::kSmallestAlgebraic;
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = static_cast<real>(i - 40) * x[i];
  });
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], -40, 1e-8);
  EXPECT_NEAR(result.eigenvalues[1], -39, 1e-8);
  EXPECT_NEAR(result.eigenvalues[2], -38, 1e-8);
}

TEST(Lanczos, LargestMagnitudePicksNegativeEnd) {
  const index_t n = 60;
  LanczosConfig cfg;
  cfg.nev = 2;
  cfg.n = n;
  cfg.which = EigWhich::kLargestMagnitude;
  // Spectrum: -100, and 1..59; LM must find -100 first, then 59.
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) {
      y[i] = (i == 0 ? -100.0 : static_cast<real>(i)) * x[i];
    }
  });
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], -100, 1e-8);
  EXPECT_NEAR(result.eigenvalues[1], 59, 1e-8);
}

class LanczosVsDense
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LanczosVsDense, MatchesDenseOracle) {
  const auto [n, nev] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + nev));
  const auto a = random_sparse_symmetric(n, 4, rng);
  const auto dense = dense_sym_eig(a.data(), n);

  LanczosConfig cfg;
  cfg.nev = nev;
  cfg.which = EigWhich::kLargestAlgebraic;
  cfg.tol = 1e-10;
  const auto result = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.eigenvalues.size(), static_cast<usize>(nev));
  for (index_t i = 0; i < nev; ++i) {
    EXPECT_NEAR(result.eigenvalues[static_cast<usize>(i)],
                dense.eigenvalues[static_cast<usize>(n - 1 - i)], 1e-7)
        << "eigenvalue " << i;
  }
  // Residual check on the extracted vectors.
  for (index_t k = 0; k < nev; ++k) {
    const real* v = result.eigenvectors.data() + k * n;
    real worst = 0;
    for (index_t i = 0; i < n; ++i) {
      real av = 0;
      for (index_t j = 0; j < n; ++j) {
        av += a[static_cast<usize>(i * n + j)] * v[j];
      }
      worst = std::max(worst,
                       std::fabs(av - result.eigenvalues[static_cast<usize>(k)] *
                                          v[i]));
    }
    EXPECT_LT(worst, 1e-6) << "eigenvector " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LanczosVsDense,
    ::testing::Values(std::make_tuple(30, 1), std::make_tuple(50, 3),
                      std::make_tuple(100, 5), std::make_tuple(150, 10),
                      std::make_tuple(60, 20)));

TEST(Lanczos, SmallestAlgebraicMatchesDense) {
  const index_t n = 70;
  Rng rng(5);
  const auto a = random_sparse_symmetric(n, 3, rng);
  const auto dense = dense_sym_eig(a.data(), n);
  LanczosConfig cfg;
  cfg.nev = 4;
  cfg.which = EigWhich::kSmallestAlgebraic;
  const auto result = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(result.converged);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.eigenvalues[static_cast<usize>(i)],
                dense.eigenvalues[static_cast<usize>(i)], 1e-7);
  }
}

TEST(Lanczos, NcvEqualToNGivesExactSolve) {
  const index_t n = 15;
  Rng rng(11);
  const auto a = random_sparse_symmetric(n, 3, rng);
  const auto dense = dense_sym_eig(a.data(), n);
  LanczosConfig cfg;
  cfg.nev = 5;
  cfg.ncv = n;  // full basis: exact after one sweep
  cfg.which = EigWhich::kLargestAlgebraic;
  const auto result = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(result.converged);
  for (index_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(result.eigenvalues[static_cast<usize>(i)],
                dense.eigenvalues[static_cast<usize>(n - 1 - i)], 1e-8);
  }
}

TEST(Lanczos, ResidualEstimatesAreHonest) {
  const index_t n = 90;
  Rng rng(21);
  const auto a = random_sparse_symmetric(n, 4, rng);
  LanczosConfig cfg;
  cfg.nev = 3;
  cfg.tol = 1e-9;
  const auto result = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(result.converged);
  for (real res : result.residuals) {
    EXPECT_LT(res, 1e-6);  // consistent with tol * ||A||
  }
}

TEST(Lanczos, StatsArepopulated) {
  const index_t n = 50;
  Rng rng(31);
  const auto a = random_sparse_symmetric(n, 3, rng);
  LanczosConfig cfg;
  cfg.nev = 2;
  const auto result = solve_dense_matrix(a, n, cfg);
  EXPECT_GT(result.stats.matvec_count, 0);
  EXPECT_GE(result.stats.rci_seconds, 0.0);
  EXPECT_GE(result.stats.converged_count, 2);
}

TEST(Lanczos, IdentityMatrixConverges) {
  // Degenerate spectrum (all eigenvalues 1): breakdown path must engage.
  const index_t n = 40;
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 3;
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = x[i];
  });
  ASSERT_EQ(result.eigenvalues.size(), 3u);
  for (real lam : result.eigenvalues) EXPECT_NEAR(lam, 1.0, 1e-8);
}

TEST(Lanczos, DeterministicForFixedSeed) {
  const index_t n = 64;
  Rng rng(41);
  const auto a = random_sparse_symmetric(n, 3, rng);
  LanczosConfig cfg;
  cfg.nev = 3;
  cfg.seed = 1234;
  const auto r1 = solve_dense_matrix(a, n, cfg);
  const auto r2 = solve_dense_matrix(a, n, cfg);
  EXPECT_EQ(r1.eigenvalues, r2.eigenvalues);
  EXPECT_EQ(r1.stats.matvec_count, r2.stats.matvec_count);
}

TEST(Lanczos, WarmStartNeverHurtsAndAgrees) {
  const index_t n = 150;
  Rng rng(71);
  const auto a = random_sparse_symmetric(n, 4, rng);
  LanczosConfig cfg;
  cfg.nev = 3;
  const auto cold = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(cold.converged);
  // Warm start with the dominant converged eigenvector.  Convergence is
  // only tested at sweep boundaries, so the guarantee is "no worse", with
  // identical answers.
  cfg.initial_vector.assign(cold.eigenvectors.begin(),
                            cold.eigenvectors.begin() + n);
  const auto warm = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(warm.converged);
  EXPECT_LE(warm.stats.matvec_count, cold.stats.matvec_count);
  for (usize i = 0; i < 3; ++i) {
    EXPECT_NEAR(warm.eigenvalues[i], cold.eigenvalues[i], 1e-8);
  }
}

TEST(Lanczos, WarmStartWithExactEigenvectorConvergesInOneSweep) {
  // nev=1 seeded with its own eigenvector: the Krylov space is (numerically)
  // invariant, so the first restart check must already satisfy the test.
  const index_t n = 100;
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 1;
  auto matvec = [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) {
      y[i] = static_cast<real>(i % 13) * x[i];
    }
  };
  const auto cold = solve_symmetric(cfg, matvec);
  ASSERT_TRUE(cold.converged);
  cfg.initial_vector.assign(cold.eigenvectors.begin(),
                            cold.eigenvectors.begin() + n);
  const auto warm = solve_symmetric(cfg, matvec);
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(warm.stats.restart_count, 0);
}

TEST(Lanczos, WarmStartValidatesLength) {
  LanczosConfig cfg;
  cfg.n = 10;
  cfg.nev = 1;
  cfg.initial_vector.assign(5, 1.0);
  SymLanczos solver(cfg);
  EXPECT_THROW((void)solver.step(), std::invalid_argument);
}

TEST(Lanczos, ZeroWarmStartFallsBackToRandom) {
  const index_t n = 30;
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 2;
  cfg.initial_vector.assign(static_cast<usize>(n), 0.0);
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = static_cast<real>(i) * x[i];
  });
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], 29, 1e-8);
}

TEST(Lanczos, BlockedCgs2MatchesDenseOracle) {
  // The blocked CGS2 reorthogonalization must land on the dense
  // eigensolver's eigenvalues to solver tolerance, with small residuals.
  const index_t n = 300;
  Rng rng(67);
  const auto a = random_sparse_symmetric(n, 3, rng);
  const auto dense = dense_sym_eig(a.data(), n);
  LanczosConfig cfg;
  cfg.nev = 4;
  cfg.ncv = 30;
  const auto cgs2 = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(cgs2.converged);
  for (usize i = 0; i < 4; ++i) {
    EXPECT_NEAR(cgs2.eigenvalues[i],
                dense.eigenvalues[static_cast<usize>(n) - 1 - i], 1e-8)
        << "pair " << i;
    EXPECT_LT(cgs2.residuals[i], 1e-6);
  }
}

TEST(Lanczos, BlockedCgs2KeepsBasisOrthonormal) {
  // Drive the solver through restarts (small ncv) and check the returned
  // eigenvectors are orthonormal — the property the reorthogonalization
  // pass exists to protect.
  const index_t n = 200;
  Rng rng(71);
  const auto a = random_sparse_symmetric(n, 4, rng);
  LanczosConfig cfg;
  cfg.nev = 5;
  cfg.ncv = 12;  // tight subspace: many restarts, heavy reorth traffic
  const auto result = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(result.converged);
  for (usize i = 0; i < 5; ++i) {
    for (usize j = 0; j <= i; ++j) {
      real d = 0;
      for (index_t l = 0; l < n; ++l) {
        d += result.eigenvectors[i * static_cast<usize>(n) +
                                 static_cast<usize>(l)] *
             result.eigenvectors[j * static_cast<usize>(n) +
                                 static_cast<usize>(l)];
      }
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-9) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Lanczos, NaiveDenseTierGivesSameAnswers) {
  const index_t n = 80;
  Rng rng(51);
  const auto a = random_sparse_symmetric(n, 3, rng);
  LanczosConfig cfg;
  cfg.nev = 4;
  const auto blocked = solve_dense_matrix(a, n, cfg);
  cfg.dense_tier = DenseTier::kNaive;
  const auto naive = solve_dense_matrix(a, n, cfg);
  ASSERT_TRUE(blocked.converged && naive.converged);
  for (usize i = 0; i < 4; ++i) {
    EXPECT_NEAR(blocked.eigenvalues[i], naive.eigenvalues[i], 1e-9);
  }
}

TEST(Lanczos, ParallelRestartMatchesNaiveTierBitwise) {
  // The blocked tier runs the restart compaction and the Ritz extraction on
  // every pool worker (hblas::gemm_par); the naive tier is the serial
  // textbook loop.  Both keep each element's summation order, so a solve
  // through dozens of restarts must agree bit for bit.
  const index_t n = 6000;
  Rng rng(29);
  struct Entry {
    index_t i, j;
    real v;
  };
  std::vector<Entry> entries;
  for (index_t i = 0; i < n; ++i) {
    entries.push_back({i, i, rng.uniform(0, 2)});
    for (int t = 0; t < 3; ++t) {
      const auto j = static_cast<index_t>(
          rng.uniform_index(static_cast<std::uint64_t>(n)));
      const real v = rng.uniform(-0.5, 0.5);
      entries.push_back({i, j, v});
      entries.push_back({j, i, v});
    }
  }
  const auto matvec = [&](const real* x, real* y) {
    std::fill(y, y + n, 0.0);
    for (const Entry& e : entries) y[e.i] += e.v * x[e.j];
  };
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 16;
  cfg.ncv = 33;
  const SymEigResult blocked = solve_symmetric(cfg, matvec);
  cfg.dense_tier = DenseTier::kNaive;
  const SymEigResult naive = solve_symmetric(cfg, matvec);
  ASSERT_TRUE(blocked.converged && naive.converged);
  EXPECT_GE(blocked.stats.restart_count, 20);
  EXPECT_EQ(blocked.stats.restart_count, naive.stats.restart_count);
  EXPECT_EQ(blocked.stats.matvec_count, naive.stats.matvec_count);
  ASSERT_EQ(blocked.eigenvalues.size(), naive.eigenvalues.size());
  ASSERT_EQ(blocked.eigenvectors.size(), naive.eigenvectors.size());
  EXPECT_EQ(std::memcmp(blocked.eigenvalues.data(), naive.eigenvalues.data(),
                        blocked.eigenvalues.size() * sizeof(real)),
            0);
  EXPECT_EQ(std::memcmp(blocked.eigenvectors.data(),
                        naive.eigenvectors.data(),
                        blocked.eigenvectors.size() * sizeof(real)),
            0);
}

}  // namespace
}  // namespace fastsc::lanczos
