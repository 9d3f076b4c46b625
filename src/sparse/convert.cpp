#include "sparse/convert.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace fastsc::sparse {

void sort_and_merge(Coo& coo) {
  const usize nnz = coo.values.size();
  std::vector<index_t> order(nnz);
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    const auto ia = static_cast<usize>(a);
    const auto ib = static_cast<usize>(b);
    if (coo.row_idx[ia] != coo.row_idx[ib]) {
      return coo.row_idx[ia] < coo.row_idx[ib];
    }
    return coo.col_idx[ia] < coo.col_idx[ib];
  });
  std::vector<index_t> rows_out, cols_out;
  std::vector<real> vals_out;
  rows_out.reserve(nnz);
  cols_out.reserve(nnz);
  vals_out.reserve(nnz);
  for (usize i = 0; i < nnz; ++i) {
    const auto p = static_cast<usize>(order[i]);
    const index_t r = coo.row_idx[p];
    const index_t c = coo.col_idx[p];
    const real v = coo.values[p];
    if (!vals_out.empty() && rows_out.back() == r && cols_out.back() == c) {
      vals_out.back() += v;
    } else {
      rows_out.push_back(r);
      cols_out.push_back(c);
      vals_out.push_back(v);
    }
  }
  coo.row_idx = std::move(rows_out);
  coo.col_idx = std::move(cols_out);
  coo.values = std::move(vals_out);
}

Csr coo_to_csr(const Coo& coo) {
  coo.validate();
  Csr csr(coo.rows, coo.cols);
  const usize nnz = coo.values.size();
  csr.col_idx.resize(nnz);
  csr.values.resize(nnz);
  // Counting sort on rows.
  for (usize i = 0; i < nnz; ++i) {
    csr.row_ptr[static_cast<usize>(coo.row_idx[i]) + 1] += 1;
  }
  for (usize r = 0; r < static_cast<usize>(coo.rows); ++r) {
    csr.row_ptr[r + 1] += csr.row_ptr[r];
  }
  std::vector<index_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  for (usize i = 0; i < nnz; ++i) {
    const auto r = static_cast<usize>(coo.row_idx[i]);
    const auto dst = static_cast<usize>(cursor[r]++);
    csr.col_idx[dst] = coo.col_idx[i];
    csr.values[dst] = coo.values[i];
  }
  return csr;
}

Coo csr_to_coo(const Csr& csr) {
  csr.validate();
  Coo coo(csr.rows, csr.cols);
  coo.reserve(csr.nnz());
  for (index_t r = 0; r < csr.rows; ++r) {
    for (index_t p = csr.row_ptr[static_cast<usize>(r)];
         p < csr.row_ptr[static_cast<usize>(r) + 1]; ++p) {
      coo.push(r, csr.col_idx[static_cast<usize>(p)],
               csr.values[static_cast<usize>(p)]);
    }
  }
  return coo;
}

Csr dense_to_csr(index_t rows, index_t cols, const real* dense, real drop_tol) {
  Coo coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      const real v = dense[r * cols + c];
      if (std::fabs(v) > drop_tol) coo.push(r, c, v);
    }
  }
  return coo_to_csr(coo);
}

void csr_to_dense(const Csr& csr, real* dense) {
  std::fill(dense,
            dense + static_cast<usize>(csr.rows) * static_cast<usize>(csr.cols),
            0.0);
  for (index_t r = 0; r < csr.rows; ++r) {
    for (index_t p = csr.row_ptr[static_cast<usize>(r)];
         p < csr.row_ptr[static_cast<usize>(r) + 1]; ++p) {
      dense[r * csr.cols + csr.col_idx[static_cast<usize>(p)]] +=
          csr.values[static_cast<usize>(p)];
    }
  }
}

}  // namespace fastsc::sparse
