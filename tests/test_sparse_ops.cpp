#include "sparse/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse/convert.h"

namespace fastsc::sparse {
namespace {

Csr example() {
  // [[1, 2, 0],
  //  [0, 0, 3],
  //  [4, 0, 5]]
  Coo coo(3, 3);
  coo.push(0, 0, 1);
  coo.push(0, 1, 2);
  coo.push(1, 2, 3);
  coo.push(2, 0, 4);
  coo.push(2, 2, 5);
  return coo_to_csr(coo);
}

TEST(SparseOps, RowSums) {
  const auto sums = row_sums(example());
  EXPECT_EQ(sums, (std::vector<real>{3, 3, 9}));
}

TEST(SparseOps, TransposeMatchesDefinition) {
  const Csr a = example();
  const Csr t = transpose(a);
  EXPECT_EQ(t.rows, a.cols);
  EXPECT_EQ(t.cols, a.rows);
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < a.cols; ++j) {
      EXPECT_DOUBLE_EQ(t.at(j, i), a.at(i, j));
    }
  }
}

TEST(SparseOps, TransposeTwiceIsIdentity) {
  const Csr a = example();
  const Csr tt = transpose(transpose(a));
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < a.cols; ++j) {
      EXPECT_DOUBLE_EQ(tt.at(i, j), a.at(i, j));
    }
  }
}

TEST(SparseOps, SymmetryDetection) {
  EXPECT_FALSE(is_symmetric(example()));
  Coo sym(2, 2);
  sym.push(0, 1, 5);
  sym.push(1, 0, 5);
  sym.push(0, 0, 1);
  EXPECT_TRUE(is_symmetric(coo_to_csr(sym)));
}

TEST(SparseOps, SymmetryWithTolerance) {
  Coo coo(2, 2);
  coo.push(0, 1, 1.0);
  coo.push(1, 0, 1.0 + 1e-12);
  const Csr csr = coo_to_csr(coo);
  EXPECT_FALSE(is_symmetric(csr, 0.0));
  EXPECT_TRUE(is_symmetric(csr, 1e-9));
}

TEST(SparseOps, NonSquareNeverSymmetric) {
  Coo coo(2, 3);
  EXPECT_FALSE(is_symmetric(coo_to_csr(coo)));
}

TEST(SparseOps, DiagonalExtraction) {
  const auto d = diagonal(example());
  EXPECT_EQ(d, (std::vector<real>{1, 0, 5}));
}

TEST(SparseOps, InfNorm) { EXPECT_DOUBLE_EQ(inf_norm(example()), 9.0); }

}  // namespace
}  // namespace fastsc::sparse
