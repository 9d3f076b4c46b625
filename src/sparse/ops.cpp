#include "sparse/ops.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fastsc::sparse {

std::vector<real> row_sums(const Csr& a) {
  std::vector<real> sums(static_cast<usize>(a.rows), 0.0);
  for (index_t r = 0; r < a.rows; ++r) {
    real acc = 0;
    for (index_t p = a.row_ptr[static_cast<usize>(r)];
         p < a.row_ptr[static_cast<usize>(r) + 1]; ++p) {
      acc += a.values[static_cast<usize>(p)];
    }
    sums[static_cast<usize>(r)] = acc;
  }
  return sums;
}

Csr transpose(const Csr& a) {
  a.validate();
  // Counting sort on columns: column c of A becomes row c of A^T, and rows
  // are visited in order, so every row of the result is column-sorted.
  Csr t(a.cols, a.rows);
  t.col_idx.resize(a.col_idx.size());
  t.values.resize(a.values.size());
  for (index_t c : a.col_idx) t.row_ptr[static_cast<usize>(c) + 1] += 1;
  for (usize c = 0; c < static_cast<usize>(a.cols); ++c) {
    t.row_ptr[c + 1] += t.row_ptr[c];
  }
  std::vector<index_t> cursor(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (index_t r = 0; r < a.rows; ++r) {
    for (index_t p = a.row_ptr[static_cast<usize>(r)];
         p < a.row_ptr[static_cast<usize>(r) + 1]; ++p) {
      const auto c = static_cast<usize>(a.col_idx[static_cast<usize>(p)]);
      const auto dst = static_cast<usize>(cursor[c]++);
      t.col_idx[dst] = r;
      t.values[dst] = a.values[static_cast<usize>(p)];
    }
  }
  return t;
}

bool is_symmetric(const Csr& a, real tol) {
  if (a.rows != a.cols) return false;
  const Csr t = transpose(a);
  if (t.nnz() != a.nnz()) return false;
  // transpose() yields sorted rows; sort a's rows by comparing via transpose
  // twice (cheap and simple: transpose(transpose(a)) is a with sorted rows).
  const Csr sorted_a = transpose(t);
  for (usize i = 0; i < sorted_a.values.size(); ++i) {
    if (sorted_a.col_idx[i] != t.col_idx[i]) return false;
    if (std::fabs(sorted_a.values[i] - t.values[i]) > tol) return false;
  }
  return sorted_a.row_ptr == t.row_ptr;
}

std::vector<real> diagonal(const Csr& a) {
  FASTSC_CHECK(a.rows == a.cols, "diagonal requires a square matrix");
  std::vector<real> d(static_cast<usize>(a.rows), 0.0);
  for (index_t r = 0; r < a.rows; ++r) {
    for (index_t p = a.row_ptr[static_cast<usize>(r)];
         p < a.row_ptr[static_cast<usize>(r) + 1]; ++p) {
      if (a.col_idx[static_cast<usize>(p)] == r) {
        d[static_cast<usize>(r)] += a.values[static_cast<usize>(p)];
      }
    }
  }
  return d;
}

real inf_norm(const Csr& a) {
  real best = 0;
  for (index_t r = 0; r < a.rows; ++r) {
    real acc = 0;
    for (index_t p = a.row_ptr[static_cast<usize>(r)];
         p < a.row_ptr[static_cast<usize>(r) + 1]; ++p) {
      acc += std::fabs(a.values[static_cast<usize>(p)]);
    }
    best = std::max(best, acc);
  }
  return best;
}

}  // namespace fastsc::sparse
