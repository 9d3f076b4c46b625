// Structural and numeric operations on host CSR matrices.  No pipeline
// path calls them: they are the reference kernels that tests check results
// against (row sums, diagonal, symmetry, infinity norm; is_symmetric needs
// transpose).  The pipeline symmetrizes edge lists (graph::symmetrized),
// never a CSR, so there is no CSR symmetrize.
#pragma once

#include <vector>

#include "sparse/coo.h"
#include "sparse/csr.h"

namespace fastsc::sparse {

/// Row sums (weighted degrees d_ii = sum_j W_ij of the paper's Step 2).
[[nodiscard]] std::vector<real> row_sums(const Csr& a);

/// Transpose as CSR.
[[nodiscard]] Csr transpose(const Csr& a);

/// True if A equals A^T up to `tol` on every stored entry.
[[nodiscard]] bool is_symmetric(const Csr& a, real tol = 0.0);

/// Stored diagonal (0 where absent); square matrices only.
[[nodiscard]] std::vector<real> diagonal(const Csr& a);

/// Infinity norm (max absolute row sum).
[[nodiscard]] real inf_norm(const Csr& a);

}  // namespace fastsc::sparse
