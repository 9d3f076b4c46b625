// Conversions between sparse formats.
//
// coo_to_csr is the cusparseXcoo2csr step of the paper's Algorithm 2; the
// dense conversions give the tests their reference matrices.
#pragma once

#include "sparse/coo.h"
#include "sparse/csr.h"

namespace fastsc::sparse {

/// Sort COO entries by (row, col) and sum duplicates in place.
void sort_and_merge(Coo& coo);

/// COO -> CSR via counting sort on rows; within-row order follows the COO
/// order (stable).  Duplicates are kept; call sort_and_merge first if the
/// input may contain them.
[[nodiscard]] Csr coo_to_csr(const Coo& coo);

/// CSR -> COO (rows expanded from the prefix sums).
[[nodiscard]] Coo csr_to_coo(const Csr& csr);

/// Dense row-major -> CSR, keeping entries with |v| > drop_tol.
[[nodiscard]] Csr dense_to_csr(index_t rows, index_t cols, const real* dense,
                               real drop_tol = 0.0);

/// CSR -> dense row-major (caller-sized output of rows*cols).
void csr_to_dense(const Csr& csr, real* dense);

}  // namespace fastsc::sparse
