#include "sparse/spmv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/laplacian.h"
#include "sparse/convert.h"

namespace fastsc::sparse {
namespace {

Coo random_coo(index_t rows, index_t cols, index_t nnz, Rng& rng) {
  Coo coo(rows, cols);
  for (index_t e = 0; e < nnz; ++e) {
    coo.push(static_cast<index_t>(
                 rng.uniform_index(static_cast<std::uint64_t>(rows))),
             static_cast<index_t>(
                 rng.uniform_index(static_cast<std::uint64_t>(cols))),
             rng.uniform() - 0.5);
  }
  sort_and_merge(coo);
  return coo;
}

std::vector<real> dense_mv(const Coo& coo, const std::vector<real>& x,
                           real alpha, real beta,
                           const std::vector<real>& y0) {
  std::vector<real> y(static_cast<usize>(coo.rows));
  for (index_t r = 0; r < coo.rows; ++r) {
    y[static_cast<usize>(r)] = beta * y0[static_cast<usize>(r)];
  }
  for (usize e = 0; e < coo.values.size(); ++e) {
    y[static_cast<usize>(coo.row_idx[e])] +=
        alpha * coo.values[e] * x[static_cast<usize>(coo.col_idx[e])];
  }
  return y;
}

class SpmvFormats
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SpmvFormats, AllFormatsMatchDenseReference) {
  const auto [rows, cols, nnz] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 7919 + cols * 31 + nnz));
  const Coo coo = random_coo(rows, cols, nnz, rng);
  const Csr csr = coo_to_csr(coo);

  std::vector<real> x(static_cast<usize>(cols));
  for (real& v : x) v = rng.uniform() - 0.5;
  std::vector<real> y0(static_cast<usize>(rows));
  for (real& v : y0) v = rng.uniform();

  for (const auto& [alpha, beta] :
       {std::pair<real, real>{1, 0}, {2.5, 0}, {1, 1}, {-1, 0.5}}) {
    const auto expect = dense_mv(coo, x, alpha, beta, y0);
    auto check = [&](const std::vector<real>& got, const char* what) {
      for (usize i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], expect[i], 1e-10)
            << what << " alpha=" << alpha << " beta=" << beta << " i=" << i;
      }
    };
    std::vector<real> y;
    y = y0;
    csr_mv(csr, x.data(), y.data(), alpha, beta);
    check(y, "csr");
    y = y0;
    coo_mv(coo, x.data(), y.data(), alpha, beta);
    check(y, "coo");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmvFormats,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(10, 10, 30),
                      std::make_tuple(33, 17, 100),
                      std::make_tuple(17, 33, 100),
                      std::make_tuple(100, 100, 0),
                      std::make_tuple(200, 200, 2000)));

// Regression for the shared beta prologue: with beta == 0 the output must be
// pure overwrite — poisoning y with NaN beforehand must not leak through
// either host format (0 * NaN = NaN would propagate if an implementation
// multiplied instead of clearing).
TEST(HostSpmvBetaPrologue, BetaZeroIgnoresPoisonedOutput) {
  Rng rng(57);
  const Coo coo = random_coo(40, 40, 250, rng);
  const Csr csr = coo_to_csr(coo);

  std::vector<real> x(40);
  for (real& v : x) v = rng.uniform() - 0.5;
  const std::vector<real> zeros(40, 0.0);
  const auto expect = dense_mv(coo, x, 2.0, 0.0, zeros);

  const real nan = std::numeric_limits<real>::quiet_NaN();
  auto check = [&](auto&& mv, const char* what) {
    std::vector<real> y(40, nan);
    mv(y.data());
    for (usize i = 0; i < y.size(); ++i) {
      EXPECT_TRUE(std::isfinite(y[i])) << what << " i=" << i;
      EXPECT_NEAR(y[i], expect[i], 1e-12) << what << " i=" << i;
    }
  };
  check([&](real* y) { csr_mv(csr, x.data(), y, 2.0, 0.0); }, "csr");
  check([&](real* y) { coo_mv(coo, x.data(), y, 2.0, 0.0); }, "coo");
}

class DeviceSparse : public ::testing::TestWithParam<int> {
 protected:
  device::DeviceContext ctx_{static_cast<usize>(GetParam())};
};

TEST_P(DeviceSparse, UploadDownloadRoundTrip) {
  Rng rng(17);
  const Coo coo = random_coo(30, 30, 100, rng);
  const Csr csr = coo_to_csr(coo);
  DeviceCsr dev(ctx_, csr);
  const Csr back = dev.to_host();
  EXPECT_EQ(back.row_ptr, csr.row_ptr);
  EXPECT_EQ(back.col_idx, csr.col_idx);
  EXPECT_EQ(back.values, csr.values);

  DeviceCoo dcoo(ctx_, coo);
  const Coo cback = dcoo.to_host();
  EXPECT_EQ(cback.row_idx, coo.row_idx);
  EXPECT_EQ(cback.values, coo.values);
}

TEST_P(DeviceSparse, DeviceCsrmvMatchesHost) {
  Rng rng(23);
  const Coo coo = random_coo(120, 120, 1500, rng);
  const Csr csr = coo_to_csr(coo);
  DeviceCsr dev(ctx_, csr);

  std::vector<real> x(120);
  for (real& v : x) v = rng.uniform() - 0.5;
  std::vector<real> y_host(120, 0.0);
  csr_mv(csr, x.data(), y_host.data());

  device::DeviceBuffer<real> dx(ctx_, std::span<const real>(x));
  device::DeviceBuffer<real> dy(ctx_, 120);
  device_csrmv(ctx_, dev, dx.data(), dy.data());
  const auto y_dev = dy.to_host();
  for (usize i = 0; i < 120; ++i) EXPECT_NEAR(y_dev[i], y_host[i], 1e-10);
}

TEST_P(DeviceSparse, DeviceCsrmvAlphaBeta) {
  Rng rng(29);
  const Coo coo = random_coo(50, 50, 300, rng);
  const Csr csr = coo_to_csr(coo);
  DeviceCsr dev(ctx_, csr);
  std::vector<real> x(50, 1.0), y(50, 2.0);
  std::vector<real> expect = y;
  csr_mv(csr, x.data(), expect.data(), 3.0, 0.5);

  device::DeviceBuffer<real> dx(ctx_, std::span<const real>(x));
  device::DeviceBuffer<real> dy(ctx_, std::span<const real>(y));
  device_csrmv(ctx_, dev, dx.data(), dy.data(), 3.0, 0.5);
  const auto got = dy.to_host();
  for (usize i = 0; i < 50; ++i) EXPECT_NEAR(got[i], expect[i], 1e-12);
}

TEST_P(DeviceSparse, Coo2CsrMatchesHostConversion) {
  Rng rng(31);
  const Coo coo = random_coo(60, 45, 400, rng);  // sorted by sort_and_merge
  DeviceCoo dcoo(ctx_, coo);
  DeviceCsr dcsr;
  device_coo2csr(ctx_, dcoo, dcsr);
  const Csr host = coo_to_csr(coo);
  const Csr got = dcsr.to_host();
  EXPECT_EQ(got.row_ptr, host.row_ptr);
  EXPECT_EQ(got.col_idx, host.col_idx);
  EXPECT_EQ(got.values, host.values);
}

TEST_P(DeviceSparse, Coo2CsrOrdersByRowCol) {
  Coo coo(4, 4);
  coo.push(3, 1, 1.0);
  coo.push(0, 2, 2.0);
  coo.push(3, 0, 3.0);
  coo.push(1, 1, 4.0);
  DeviceCoo dcoo(ctx_, coo);
  DeviceCsr dcsr;
  device_coo2csr(ctx_, dcoo, dcsr);
  const Csr got = dcsr.to_host();
  EXPECT_EQ(got.row_ptr, (std::vector<index_t>{0, 1, 2, 2, 4}));
  EXPECT_EQ(got.col_idx, (std::vector<index_t>{2, 1, 0, 1}));
  EXPECT_EQ(got.values, (std::vector<real>{2.0, 4.0, 3.0, 1.0}));
}

TEST_P(DeviceSparse, Coo2CsrHandlesTinyInputs) {
  // No rows, no entries, and fewer rows than workers.
  for (const index_t rows : {0, 3}) {
    DeviceCoo dcoo(ctx_, Coo(rows, rows));
    DeviceCsr dcsr;
    device_coo2csr(ctx_, dcoo, dcsr);
    EXPECT_EQ(dcsr.to_host().row_ptr,
              std::vector<index_t>(static_cast<usize>(rows) + 1, 0));
  }
  Coo one(1, 5);
  one.push(0, 4, 1.0);
  one.push(0, 2, 2.0);
  one.push(0, 4, 3.0);
  DeviceCoo dcoo(ctx_, one);
  DeviceCsr dcsr;
  device_coo2csr(ctx_, dcoo, dcsr);
  const Csr got = dcsr.to_host();
  EXPECT_EQ(got.row_ptr, (std::vector<index_t>{0, 3}));
  EXPECT_EQ(got.col_idx, (std::vector<index_t>{2, 4, 4}));
  EXPECT_EQ(got.values, (std::vector<real>{2.0, 1.0, 3.0}));
}

TEST_P(DeviceSparse, Coo2CsrMatchesStableSortOfShuffledInput) {
  // Shuffled entries, repeated (row, col) pairs and empty rows: the CSR
  // must be the stable sort by (row, col), repeats in their COO order.
  Rng rng(37);
  const index_t rows = 60;
  const index_t cols = 40;
  Coo coo(rows, cols);
  for (index_t e = 0; e < 3000; ++e) {
    index_t r = static_cast<index_t>(rng.uniform_index(rows));
    if (r % 7 == 3) r = 0;  // rows 3, 10, 17, ... stay empty
    coo.push(r, static_cast<index_t>(rng.uniform_index(cols)),
             rng.uniform() - 0.5);
  }
  std::vector<usize> order(coo.values.size());
  std::iota(order.begin(), order.end(), usize{0});
  std::stable_sort(order.begin(), order.end(), [&](usize a, usize b) {
    return std::pair(coo.row_idx[a], coo.col_idx[a]) <
           std::pair(coo.row_idx[b], coo.col_idx[b]);
  });
  std::vector<index_t> row_ptr(static_cast<usize>(rows) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<real> values;
  for (const usize e : order) {
    ++row_ptr[static_cast<usize>(coo.row_idx[e]) + 1];
    col_idx.push_back(coo.col_idx[e]);
    values.push_back(coo.values[e]);
  }
  for (usize r = 0; r < static_cast<usize>(rows); ++r) {
    row_ptr[r + 1] += row_ptr[r];
  }

  DeviceCoo dcoo(ctx_, coo);
  DeviceCsr dcsr;
  device_coo2csr(ctx_, dcoo, dcsr);
  const Csr got = dcsr.to_host();
  EXPECT_EQ(got.row_ptr, row_ptr);
  EXPECT_EQ(got.col_idx, col_idx);
  ASSERT_EQ(got.values.size(), values.size());
  EXPECT_EQ(std::memcmp(got.values.data(), values.data(),
                        values.size() * sizeof(real)),
            0);
}

TEST_P(DeviceSparse, SymNormalizedLeavesCooUnchanged) {
  // A shuffled symmetric W: Algorithm 2 reads it and must not reorder or
  // rescale it.
  Rng rng(41);
  const index_t n = 80;
  Coo w(n, n);
  for (index_t i = 0; i < n; ++i) {
    const index_t j = (i + 1) % n;
    const real v = rng.uniform() + 0.5;
    w.push(j, i, v);
    w.push(i, j, v);
  }
  for (index_t e = 0; e < 300; ++e) {
    const auto i = static_cast<index_t>(rng.uniform_index(n));
    const auto j = static_cast<index_t>(rng.uniform_index(n));
    const real v = rng.uniform() + 0.5;
    w.push(j, i, v);
    w.push(i, j, v);
  }
  DeviceCoo dw(ctx_, w);
  device::DeviceBuffer<real> isd;
  (void)graph::sym_normalized_device(ctx_, dw, isd);
  const Coo after = dw.to_host();
  const usize nnz = w.values.size();
  ASSERT_EQ(after.values.size(), nnz);
  EXPECT_EQ(std::memcmp(after.row_idx.data(), w.row_idx.data(),
                        nnz * sizeof(index_t)),
            0);
  EXPECT_EQ(std::memcmp(after.col_idx.data(), w.col_idx.data(),
                        nnz * sizeof(index_t)),
            0);
  EXPECT_EQ(
      std::memcmp(after.values.data(), w.values.data(), nnz * sizeof(real)),
      0);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DeviceSparse, ::testing::Values(1, 4));

}  // namespace
}  // namespace fastsc::sparse
