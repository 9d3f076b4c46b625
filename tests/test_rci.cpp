// Tests of the reverse communication loop — the calling convention of the
// paper's Algorithm 3 — and its convenience driver.
#include "lanczos/rci.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"

namespace fastsc::lanczos {
namespace {

LanczosConfig diag_config(index_t n, index_t nev) {
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = nev;
  cfg.which = EigWhich::kLargestAlgebraic;
  return cfg;
}

TEST(RciLoop, PaperAlgorithm3LoopShape) {
  // The loop from the paper:
  //   while (!Prob.converge()) { TakeStep-with-matvec }
  //   Prob.FindEigenvectors();
  const index_t n = 50;
  SymLanczos solver(diag_config(n, 2));
  index_t matvecs = 0;
  const RciRun run = rci_loop(solver, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = static_cast<real>(i) * x[i];
    ++matvecs;
  });
  EXPECT_EQ(run.action, SymLanczos::Action::kConverged);
  EXPECT_FALSE(run.abandoned);
  EXPECT_GT(matvecs, 0);
  EXPECT_EQ(solver.stats().matvec_count, matvecs);
  ASSERT_EQ(solver.eigenvalues().size(), 2u);
  EXPECT_NEAR(solver.eigenvalues()[0], 49, 1e-8);
  EXPECT_NEAR(solver.eigenvalues()[1], 48, 1e-8);

  const auto vectors = solver.extract_eigenvectors();
  ASSERT_EQ(vectors.size(), static_cast<usize>(2 * n));
  // Eigenvector of a diagonal matrix is a coordinate axis.
  EXPECT_NEAR(std::fabs(vectors[static_cast<usize>(n - 1)]), 1.0, 1e-6);
}

TEST(RciLoop, MultiplyInputStableBetweenStepCalls) {
  SymLanczos solver(diag_config(30, 1));
  ASSERT_EQ(solver.step(), SymLanczos::Action::kMultiply);
  const real* x1 = solver.multiply_input().data();
  const real* x2 = solver.multiply_input().data();
  EXPECT_EQ(x1, x2);
}

TEST(RciLoop, AwaitsProductDoesNotAdvanceSolver) {
  SymLanczos solver(diag_config(30, 1));
  EXPECT_FALSE(solver.awaits_product());
  EXPECT_FALSE(solver.awaits_product());  // a fresh solver stays fresh
  ASSERT_EQ(solver.step(), SymLanczos::Action::kMultiply);
  const std::vector<real> x(solver.multiply_input().begin(),
                            solver.multiply_input().end());
  EXPECT_TRUE(solver.awaits_product());
  EXPECT_TRUE(solver.awaits_product());  // does not advance the iteration
  EXPECT_EQ(solver.basis_size(), 0);
  EXPECT_EQ(solver.stats().matvec_count, 0);
  EXPECT_TRUE(std::equal(x.begin(), x.end(), solver.multiply_input().begin()));
}

/// Armed governor whose deadline never fires on its own: a trip at
/// "lanczos.matvec" stands in for it.
class RciCutTest : public ::testing::Test {
 protected:
  void arm(bool anytime, std::uint64_t nth) {
    cancel::RunBudget budget;
    budget.wall_ms = 1e9;
    budget.anytime = anytime;
    cancel::governor().arm(budget, cancel::CancelToken{});
    cancel::governor().set_trip("lanczos.matvec", nth);
  }
  void TearDown() override {
    if (cancel::governor().armed()) cancel::governor().disarm();
    cancel::governor().clear_trip();
    cancel::governor().reset_for_test();
  }
};

TEST_F(RciCutTest, AnytimeCutAbandonsWithBestPartialPairs) {
  const index_t n = 60;
  LanczosConfig cfg = diag_config(n, 2);
  cfg.ncv = 20;
  arm(/*anytime=*/true, /*nth=*/10);
  SymLanczos solver(cfg);
  index_t matvecs = 0;
  const RciRun run = rci_loop(solver, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = static_cast<real>(i) * x[i];
    ++matvecs;
  });
  EXPECT_TRUE(run.abandoned);
  EXPECT_EQ(run.action, SymLanczos::Action::kFailed);
  EXPECT_EQ(matvecs, 9);  // the tenth wave's poll fired before its matvec
  EXPECT_EQ(solver.eigenvalues().size(), 2u);
  EXPECT_EQ(solver.extract_eigenvectors().size(), static_cast<usize>(2 * n));
  EXPECT_TRUE(cancel::governor().report().anytime);  // wrap-up began
}

TEST_F(RciCutTest, CutWithoutPartialPairsOrAnytimeUnwinds) {
  const index_t n = 30;
  const Matvec diag = [n](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = static_cast<real>(i) * x[i];
  };
  // The first wave's poll fires before the basis holds nev vectors: there
  // is nothing to keep, so the loop unwinds even though anytime is on.
  arm(/*anytime=*/true, /*nth=*/1);
  SymLanczos early(diag_config(n, 2));
  EXPECT_THROW((void)rci_loop(early, diag), cancel::CancelledError);
  EXPECT_FALSE(cancel::governor().report().anytime);
  TearDown();

  // With anytime forbidden a later cut unwinds too.
  arm(/*anytime=*/false, /*nth=*/10);
  SymLanczos late(diag_config(n, 2));
  EXPECT_THROW((void)rci_loop(late, diag), cancel::CancelledError);
  EXPECT_FALSE(cancel::governor().report().anytime);
}

TEST(SolveSymmetric, MatvecCallbackDrivesSolution) {
  const index_t n = 40;
  std::vector<real> diag(static_cast<usize>(n));
  for (index_t i = 0; i < n; ++i) {
    diag[static_cast<usize>(i)] = static_cast<real>((i * 7) % 23);
  }
  LanczosConfig cfg = diag_config(n, 1);
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = diag[static_cast<usize>(i)] * x[i];
  });
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.eigenvalues[0], 22, 1e-8);
}

TEST(SolveSymmetric, EigenvectorRowsAreUnitNorm) {
  const index_t n = 35;
  LanczosConfig cfg = diag_config(n, 3);
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = static_cast<real>(i % 9) * x[i];
  });
  for (index_t k = 0; k < 3; ++k) {
    real norm2 = 0;
    for (index_t i = 0; i < n; ++i) {
      const real v = result.eigenvectors[static_cast<usize>(k * n + i)];
      norm2 += v * v;
    }
    EXPECT_NEAR(norm2, 1.0, 1e-9);
  }
}

TEST(SolveSymmetric, FailureReportedWhenBudgetTooSmall) {
  // A hard spectrum with an absurdly tight restart budget must raise the
  // failed flag rather than pretend convergence.
  const index_t n = 400;
  Rng rng(3);
  std::vector<real> diag(static_cast<usize>(n));
  // Densely clustered eigenvalues make the top-k hard to separate.
  for (index_t i = 0; i < n; ++i) {
    diag[static_cast<usize>(i)] = 1.0 + 1e-7 * static_cast<real>(i);
  }
  LanczosConfig cfg = diag_config(n, 8);
  cfg.max_restarts = 0;
  cfg.tol = 1e-14;
  cfg.ncv = 17;
  const auto result = solve_symmetric(cfg, [&](const real* x, real* y) {
    for (index_t i = 0; i < n; ++i) y[i] = diag[static_cast<usize>(i)] * x[i];
  });
  EXPECT_FALSE(result.converged);
  // Best-effort estimates are still produced.
  EXPECT_EQ(result.eigenvalues.size(), 8u);
}

}  // namespace
}  // namespace fastsc::lanczos
