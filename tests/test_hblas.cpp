#include "blas/hblas.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace fastsc::hblas {
namespace {

std::vector<real> random_vec(usize n, Rng& rng) {
  std::vector<real> v(n);
  for (real& x : v) x = rng.uniform() - 0.5;
  return v;
}

bool same_bits(const std::vector<real>& a, const std::vector<real>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real)) == 0;
}

TEST(Hblas, DotBasics) {
  const real x[] = {1, 2, 3};
  const real y[] = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(3, x, y), 32.0);
  EXPECT_DOUBLE_EQ(dot(0, x, y), 0.0);
}

TEST(Hblas, Nrm2MatchesDefinition) {
  const real x[] = {3, 4};
  EXPECT_DOUBLE_EQ(nrm2(2, x), 5.0);
  EXPECT_DOUBLE_EQ(nrm2(0, x), 0.0);
}

TEST(Hblas, Nrm2AvoidsOverflow) {
  const real x[] = {1e200, 1e200};
  EXPECT_DOUBLE_EQ(nrm2(2, x), 1e200 * std::sqrt(2.0));
}

TEST(Hblas, Nrm2AvoidsUnderflow) {
  const real x[] = {1e-200, 1e-200};
  EXPECT_GT(nrm2(2, x), 1e-201);
}

TEST(Hblas, AxpyAccumulates) {
  const real x[] = {1, 2};
  real y[] = {10, 20};
  axpy(2, 3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 13.0);
  EXPECT_DOUBLE_EQ(y[1], 26.0);
}

TEST(Hblas, ScalScales) {
  real x[] = {2, -4};
  scal(2, 0.5, x);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
}

TEST(Hblas, CopyCopies) {
  const real x[] = {1, 2, 3};
  real y[3] = {};
  copy(3, x, y);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(Hblas, GemvMatchesManual) {
  // A = [[1,2],[3,4],[5,6]], x = [1,1]
  const real a[] = {1, 2, 3, 4, 5, 6};
  const real x[] = {1, 1};
  real y[] = {100, 100, 100};
  gemv(3, 2, 1.0, a, 2, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 3);
  EXPECT_DOUBLE_EQ(y[1], 7);
  EXPECT_DOUBLE_EQ(y[2], 11);
}

TEST(Hblas, GemvBetaBlends) {
  const real a[] = {1, 0, 0, 1};
  const real x[] = {2, 3};
  real y[] = {10, 10};
  gemv(2, 2, 1.0, a, 2, x, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 7);
  EXPECT_DOUBLE_EQ(y[1], 8);
}

TEST(Hblas, GemvTransposeMatchesManual) {
  const real a[] = {1, 2, 3, 4, 5, 6};  // 3x2
  const real x[] = {1, 1, 1};
  real y[] = {0, 0};
  gemv_t(3, 2, 1.0, a, 2, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 9);
  EXPECT_DOUBLE_EQ(y[1], 12);
}

class GemmSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  const auto a = random_vec(static_cast<usize>(m * k), rng);
  const auto b = random_vec(static_cast<usize>(k * n), rng);
  auto c1 = random_vec(static_cast<usize>(m * n), rng);
  auto c2 = c1;
  gemm(m, n, k, 1.7, a.data(), k, b.data(), n, 0.3, c1.data(), n);
  gemm_naive(m, n, k, 1.7, a.data(), k, b.data(), n, 0.3, c2.data(), n);
  for (usize i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-10);
}

TEST_P(GemmSizes, GemmNtMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 13 + k * 17));
  const auto a = random_vec(static_cast<usize>(m * k), rng);
  const auto b = random_vec(static_cast<usize>(n * k), rng);
  auto c1 = random_vec(static_cast<usize>(m * n), rng);
  auto c2 = c1;
  gemm_nt(m, n, k, -2.0, a.data(), k, b.data(), k, 1.0, c1.data(), n);
  gemm_nt_naive(m, n, k, -2.0, a.data(), k, b.data(), k, 1.0, c2.data(), n);
  for (usize i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(17, 9, 31), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 129, 70),
                      std::make_tuple(128, 1, 100),
                      std::make_tuple(1, 200, 64)));

// Threaded host kernels: bitwise equal to their serial counterparts, so the
// CGS2 reorthogonalization gives the same bits at any worker count, across
// sizes below and above the parallel-dispatch threshold.
class HblasPar : public ::testing::TestWithParam<int> {};

TEST_P(HblasPar, GemvMatchesSerial) {
  const auto n = static_cast<usize>(GetParam());
  const usize m = 13;
  Rng rng(n * 31 + 3);
  const auto a = random_vec(m * n, rng);
  const auto x = random_vec(n, rng);
  auto y1 = random_vec(m, rng);
  auto y2 = y1;
  gemv(static_cast<index_t>(m), static_cast<index_t>(n), 2.0, a.data(),
       static_cast<index_t>(n), x.data(), 0.5, y1.data());
  gemv_par(static_cast<index_t>(m), static_cast<index_t>(n), 2.0, a.data(),
           static_cast<index_t>(n), x.data(), 0.5, y2.data());
  EXPECT_TRUE(same_bits(y1, y2));  // each row keeps the serial dot order
}

TEST_P(HblasPar, GemvTMatchesSerial) {
  const auto n = static_cast<usize>(GetParam());
  const usize m = 13;
  Rng rng(n * 31 + 4);
  const auto a = random_vec(m * n, rng);
  const auto x = random_vec(m, rng);
  auto y1 = random_vec(n, rng);
  auto y2 = y1;
  gemv_t(static_cast<index_t>(m), static_cast<index_t>(n), -1.0, a.data(),
         static_cast<index_t>(n), x.data(), 1.0, y1.data());
  gemv_t_par(static_cast<index_t>(m), static_cast<index_t>(n), -1.0, a.data(),
             static_cast<index_t>(n), x.data(), 1.0, y2.data());
  EXPECT_TRUE(same_bits(y1, y2));  // each column keeps the serial row order
}

INSTANTIATE_TEST_SUITE_P(Sizes, HblasPar,
                         ::testing::Values(1, 7, 100, 5000, 40000));

TEST(HblasPar, GemvBetaZeroOverwritesGarbage) {
  const real a[] = {1, 2};
  const real x[] = {3, 4};
  real y[] = {std::numeric_limits<real>::quiet_NaN()};
  gemv_par(1, 2, 1.0, a, 2, x, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 11.0);
  real z[] = {std::numeric_limits<real>::quiet_NaN(),
              std::numeric_limits<real>::quiet_NaN()};
  gemv_t_par(1, 2, 1.0, a, 2, x, 0.0, z);
  EXPECT_DOUBLE_EQ(z[0], 3.0);
  EXPECT_DOUBLE_EQ(z[1], 6.0);
}

TEST(HblasPar, GemmMatchesSerialExactly) {
  struct Shape {
    index_t m, n, k;
  };
  // The Lanczos restart and Ritz shapes (dti, powerlaw, service), then
  // skinny outputs with fewer columns than pool workers and a ragged n.
  const Shape shapes[] = {{96, 4096, 129}, {64, 4096, 129}, {14, 19999, 20},
                          {15, 1300, 21},  {300, 1, 300},   {300, 3, 300},
                          {100, 9, 100},   {16, 4097, 33}};
  Rng rng(91);
  for (const Shape& sh : shapes) {
    for (const index_t pad : {index_t{0}, index_t{5}}) {
      const index_t lda = sh.k + pad;
      const index_t ldb = sh.n + 2 * pad;
      const index_t ldc = sh.n + 3 * pad;
      const auto a = random_vec(static_cast<usize>(sh.m * lda), rng);
      const auto b = random_vec(static_cast<usize>(sh.k * ldb), rng);
      const auto c0 = random_vec(static_cast<usize>(sh.m * ldc), rng);
      for (const real beta : {0.0, 0.3, 1.0}) {
        auto serial = c0;
        auto par = c0;
        gemm(sh.m, sh.n, sh.k, 1.3, a.data(), lda, b.data(), ldb, beta,
             serial.data(), ldc);
        gemm_par(sh.m, sh.n, sh.k, 1.3, a.data(), lda, b.data(), ldb, beta,
                 par.data(), ldc);
        EXPECT_TRUE(same_bits(serial, par))
            << sh.m << "x" << sh.n << "x" << sh.k << " pad " << pad
            << " beta " << beta;
      }
    }
  }
  // beta = 0 overwrites C without reading it: a NaN-filled C is garbage.
  const index_t m = 96;
  const index_t n = 4096;
  const index_t k = 129;
  const auto a = random_vec(static_cast<usize>(m * k), rng);
  const auto b = random_vec(static_cast<usize>(k * n), rng);
  std::vector<real> serial(static_cast<usize>(m * n),
                           std::numeric_limits<real>::quiet_NaN());
  auto par = serial;
  gemm(m, n, k, 1.0, a.data(), k, b.data(), n, 0.0, serial.data(), n);
  gemm_par(m, n, k, 1.0, a.data(), k, b.data(), n, 0.0, par.data(), n);
  EXPECT_TRUE(same_bits(serial, par));
  for (const real v : par) ASSERT_FALSE(std::isnan(v));
}

TEST(Hblas, GemmBetaZeroOverwritesGarbage) {
  const real a[] = {1};
  const real b[] = {2};
  real c[] = {std::numeric_limits<real>::quiet_NaN()};
  gemm(1, 1, 1, 1.0, a, 1, b, 1, 0.0, c, 1);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
}

TEST(Hblas, GemmAlphaZeroOnlyScalesC) {
  const real a[] = {1, 2};
  const real b[] = {3, 4};
  real c[] = {5.0};
  gemm(1, 1, 2, 0.0, a, 2, b, 1, 2.0, c, 1);
  EXPECT_DOUBLE_EQ(c[0], 10.0);
}

TEST(Hblas, GemmLeadingDimensions) {
  // Operate on a 2x2 submatrix embedded in 2x4 storage.
  const real a[] = {1, 2, 9, 9, 3, 4, 9, 9};  // lda = 4
  const real b[] = {1, 0, 9, 9, 0, 1, 9, 9};  // ldb = 4
  real c[] = {0, 0, 9, 9, 0, 0, 9, 9};        // ldc = 4
  gemm(2, 2, 2, 1.0, a, 4, b, 4, 0.0, c, 4);
  EXPECT_DOUBLE_EQ(c[0], 1);
  EXPECT_DOUBLE_EQ(c[1], 2);
  EXPECT_DOUBLE_EQ(c[4], 3);
  EXPECT_DOUBLE_EQ(c[5], 4);
  EXPECT_DOUBLE_EQ(c[2], 9);  // outside the submatrix untouched
}

}  // namespace
}  // namespace fastsc::hblas
