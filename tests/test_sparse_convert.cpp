#include "sparse/convert.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sparse/ops.h"

namespace fastsc::sparse {
namespace {

/// Random sparse matrix with possible duplicates controlled by the caller.
Coo random_coo(index_t rows, index_t cols, index_t nnz, Rng& rng,
               bool allow_duplicates = false) {
  Coo coo(rows, cols);
  coo.reserve(nnz);
  for (index_t e = 0; e < nnz; ++e) {
    coo.push(static_cast<index_t>(rng.uniform_index(
                 static_cast<std::uint64_t>(rows))),
             static_cast<index_t>(
                 rng.uniform_index(static_cast<std::uint64_t>(cols))),
             rng.uniform() - 0.5);
  }
  if (!allow_duplicates) sort_and_merge(coo);
  return coo;
}

std::vector<real> to_dense(const Coo& coo) {
  std::vector<real> d(static_cast<usize>(coo.rows) *
                          static_cast<usize>(coo.cols),
                      0.0);
  for (usize e = 0; e < coo.values.size(); ++e) {
    d[static_cast<usize>(coo.row_idx[e] * coo.cols + coo.col_idx[e])] +=
        coo.values[e];
  }
  return d;
}

std::vector<real> to_dense(const Csr& csr) {
  std::vector<real> d(static_cast<usize>(csr.rows) *
                      static_cast<usize>(csr.cols));
  csr_to_dense(csr, d.data());
  return d;
}

class ConvertRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvertRoundTrip, CooCsrPreservesDense) {
  const auto [rows, cols, nnz] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 31 + cols * 7 + nnz));
  const Coo coo = random_coo(rows, cols, nnz, rng);
  const Csr csr = coo_to_csr(coo);
  EXPECT_NO_THROW(csr.validate());
  EXPECT_EQ(to_dense(coo), to_dense(csr));
  // Round trip back.
  const Coo back = csr_to_coo(csr);
  EXPECT_EQ(to_dense(back), to_dense(coo));
}

// The CSC arrays of A are the CSR arrays of A^T, so transposing twice is the
// CSR -> CSC -> CSR round trip.
TEST_P(ConvertRoundTrip, CsrCscRoundTrip) {
  const auto [rows, cols, nnz] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 13 + cols * 3 + nnz));
  const Csr csr = coo_to_csr(random_coo(rows, cols, nnz, rng));
  const Csr csc = transpose(csr);
  EXPECT_NO_THROW(csc.validate());
  const Csr back = transpose(csc);
  EXPECT_EQ(to_dense(back), to_dense(csr));
}

TEST_P(ConvertRoundTrip, DenseCsrRoundTrip) {
  const auto [rows, cols, nnz] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 3 + cols + nnz * 11));
  const Coo coo = random_coo(rows, cols, nnz, rng);
  const auto dense = to_dense(coo);
  const Csr csr = dense_to_csr(rows, cols, dense.data());
  EXPECT_EQ(to_dense(csr), dense);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvertRoundTrip,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(5, 5, 10),
                      std::make_tuple(20, 7, 50), std::make_tuple(7, 20, 50),
                      std::make_tuple(40, 40, 0),
                      std::make_tuple(64, 64, 500)));

TEST(SortAndMerge, SumsDuplicates) {
  Coo coo(2, 2);
  coo.push(1, 1, 1.0);
  coo.push(0, 0, 2.0);
  coo.push(1, 1, 3.0);
  sort_and_merge(coo);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_TRUE(coo.is_sorted_unique());
  EXPECT_DOUBLE_EQ(coo.values[0], 2.0);  // (0,0)
  EXPECT_DOUBLE_EQ(coo.values[1], 4.0);  // (1,1) merged
}

TEST(SortAndMerge, OrdersByRowThenCol) {
  Coo coo(3, 3);
  coo.push(2, 0, 1);
  coo.push(0, 2, 1);
  coo.push(0, 1, 1);
  coo.push(1, 0, 1);
  sort_and_merge(coo);
  EXPECT_EQ(coo.row_idx, (std::vector<index_t>{0, 0, 1, 2}));
  EXPECT_EQ(coo.col_idx, (std::vector<index_t>{1, 2, 0, 0}));
}

TEST(CooToCsr, IsStableWithinRows) {
  Coo coo(2, 4);
  coo.push(0, 3, 1);
  coo.push(0, 1, 2);
  coo.push(0, 2, 3);
  const Csr csr = coo_to_csr(coo);
  // COO order within the row is preserved (no column sort).
  EXPECT_EQ(csr.col_idx, (std::vector<index_t>{3, 1, 2}));
}

TEST(CooToCsr, DuplicatesKeptWhenNotMerged) {
  Coo coo(1, 1);
  coo.push(0, 0, 1);
  coo.push(0, 0, 2);
  const Csr csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 2);
  EXPECT_DOUBLE_EQ(csr.at(0, 0), 3.0);  // at() sums stored duplicates
}

TEST(DenseToCsr, DropTolFiltersSmallEntries) {
  const real dense[] = {0.5, 1e-12, 0, 2.0};
  const Csr csr = dense_to_csr(2, 2, dense, 1e-9);
  EXPECT_EQ(csr.nnz(), 2);
  EXPECT_DOUBLE_EQ(csr.at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(csr.at(1, 1), 2.0);
}

}  // namespace
}  // namespace fastsc::sparse
