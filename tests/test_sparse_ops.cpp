#include "sparse/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
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

TEST(SparseOps, SymmetrizeAveragesWithTranspose) {
  Coo coo(2, 2);
  coo.push(0, 1, 4.0);
  const Csr s = symmetrize(coo_to_csr(coo));
  EXPECT_DOUBLE_EQ(s.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 2.0);
  EXPECT_TRUE(is_symmetric(s));
}

TEST(SparseOps, RandomSymmetrizeIsSymmetric) {
  Rng rng(55);
  Coo coo(30, 30);
  for (int e = 0; e < 200; ++e) {
    coo.push(static_cast<index_t>(rng.uniform_index(30)),
             static_cast<index_t>(rng.uniform_index(30)),
             rng.uniform() - 0.5);
  }
  sort_and_merge(coo);
  EXPECT_TRUE(is_symmetric(symmetrize(coo_to_csr(coo)), 1e-12));
}

}  // namespace
}  // namespace fastsc::sparse
