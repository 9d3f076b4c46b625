#include <gtest/gtest.h>

#include "sparse/convert.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/ops.h"

namespace fastsc::sparse {
namespace {

Coo small_coo() {
  // [[1, 0, 2],
  //  [0, 0, 0],
  //  [3, 4, 0]]
  Coo coo(3, 3);
  coo.push(0, 0, 1);
  coo.push(0, 2, 2);
  coo.push(2, 0, 3);
  coo.push(2, 1, 4);
  return coo;
}

TEST(Coo, ValidatePassesOnWellFormed) {
  EXPECT_NO_THROW(small_coo().validate());
}

TEST(Coo, ValidateCatchesOutOfRange) {
  Coo coo(2, 2);
  coo.push(2, 0, 1.0);
  EXPECT_THROW(coo.validate(), std::invalid_argument);
  Coo coo2(2, 2);
  coo2.push(0, -1, 1.0);
  EXPECT_THROW(coo2.validate(), std::invalid_argument);
}

TEST(Coo, ValidateCatchesLengthMismatch) {
  Coo coo(2, 2);
  coo.push(0, 0, 1.0);
  coo.row_idx.push_back(1);
  EXPECT_THROW(coo.validate(), std::invalid_argument);
}

TEST(Coo, SortedUniqueDetection) {
  Coo coo(3, 3);
  coo.push(0, 1, 1);
  coo.push(1, 0, 1);
  EXPECT_TRUE(coo.is_sorted_unique());
  coo.push(1, 0, 2);  // duplicate
  EXPECT_FALSE(coo.is_sorted_unique());
}

TEST(Csr, ValidateChecksPrefixSums) {
  Csr csr(2, 2);
  csr.row_ptr = {0, 1, 2};
  csr.col_idx = {0, 1};
  csr.values = {1.0, 2.0};
  EXPECT_NO_THROW(csr.validate());
  csr.row_ptr = {0, 2, 1};
  EXPECT_THROW(csr.validate(), std::invalid_argument);
}

TEST(Csr, ValidateChecksEndpoints) {
  Csr csr(1, 1);
  csr.row_ptr = {0, 2};
  csr.col_idx = {0};
  csr.values = {1.0};
  EXPECT_THROW(csr.validate(), std::invalid_argument);
}

TEST(Csr, AtFindsStoredAndMissing) {
  const Csr csr = coo_to_csr(small_coo());
  EXPECT_DOUBLE_EQ(csr.at(0, 0), 1);
  EXPECT_DOUBLE_EQ(csr.at(0, 2), 2);
  EXPECT_DOUBLE_EQ(csr.at(0, 1), 0);
  EXPECT_DOUBLE_EQ(csr.at(1, 1), 0);
  EXPECT_DOUBLE_EQ(csr.at(-1, 0), 0);
}

TEST(Csr, RowNnz) {
  const Csr csr = coo_to_csr(small_coo());
  EXPECT_EQ(csr.row_nnz(0), 2);
  EXPECT_EQ(csr.row_nnz(1), 0);
  EXPECT_EQ(csr.row_nnz(2), 2);
}

TEST(Csr, HasSortedRowsDetection) {
  Csr csr(1, 3);
  csr.row_ptr = {0, 2};
  csr.col_idx = {2, 1};
  csr.values = {1, 1};
  EXPECT_FALSE(csr.has_sorted_rows());
  csr.col_idx = {1, 2};
  EXPECT_TRUE(csr.has_sorted_rows());
}

TEST(EmptyMatrices, AllFormatsHandleZeroNnz) {
  Coo coo(4, 4);
  EXPECT_NO_THROW(coo.validate());
  const Csr csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_NO_THROW(csr.validate());
  const Csr t = transpose(csr);
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.nnz(), 0);
}

}  // namespace
}  // namespace fastsc::sparse
