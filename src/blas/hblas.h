// Host dense BLAS subset (row-major).
//
// Stands in for OpenBLAS in the paper's stack: ARPACK's CPU-side iteration
// (TakeStep / FindEigenvectors) runs its dense updates through these
// routines.  Three tiers are provided where it matters:
//   * gemm_par    — gemm with its output columns split across the default
//                   pool; the thick-restart compaction and Ritz extraction
//                   run here, bitwise equal to gemm at any worker count,
//   * gemm        — cache-blocked with an i-k-j inner ordering (vectorizable),
//   * gemm_naive  — textbook triple loop, used by the "python-like" baseline
//                   to model an unoptimized BLAS build (DESIGN.md §2).
// All matrices are row-major with explicit leading dimension.
#pragma once

#include "common/types.h"

namespace fastsc::hblas {

/// sum_i x[i] * y[i]
[[nodiscard]] real dot(index_t n, const real* x, const real* y) noexcept;

/// Euclidean norm with scaling guard against overflow.
[[nodiscard]] real nrm2(index_t n, const real* x) noexcept;

/// y += alpha * x
void axpy(index_t n, real alpha, const real* x, real* y) noexcept;

/// x *= alpha
void scal(index_t n, real alpha, real* x) noexcept;

/// y = x
void copy(index_t n, const real* x, real* y) noexcept;

/// y = alpha * A @ x + beta * y, A is m x n row-major with leading dim lda.
void gemv(index_t m, index_t n, real alpha, const real* a, index_t lda,
          const real* x, real beta, real* y) noexcept;

/// y = alpha * A^T @ x + beta * y (A m x n row-major; x length m, y length n).
void gemv_t(index_t m, index_t n, real alpha, const real* a, index_t lda,
            const real* x, real beta, real* y) noexcept;

/// C = alpha * A @ B + beta * C.  A is m x k (lda), B is k x n (ldb),
/// C is m x n (ldc); all row-major.  Cache-blocked implementation.
void gemm(index_t m, index_t n, index_t k, real alpha, const real* a,
          index_t lda, const real* b, index_t ldb, real beta, real* c,
          index_t ldc) noexcept;

/// C = alpha * A @ B^T + beta * C.  A is m x k (lda), B is n x k (ldb),
/// C is m x n (ldc).  This is the S = S - 2 V C^T shape from the paper's
/// k-means (Eq. 16).
void gemm_nt(index_t m, index_t n, index_t k, real alpha, const real* a,
             index_t lda, const real* b, index_t ldb, real beta, real* c,
             index_t ldc) noexcept;

/// Textbook (i,j,l) triple-loop gemm — deliberately cache-oblivious; the
/// python-like baseline routes its dense work here.
void gemm_naive(index_t m, index_t n, index_t k, real alpha, const real* a,
                index_t lda, const real* b, index_t ldb, real beta, real* c,
                index_t ldc) noexcept;

/// Naive A @ B^T counterpart of gemm_nt.
void gemm_nt_naive(index_t m, index_t n, index_t k, real alpha, const real* a,
                   index_t lda, const real* b, index_t ldb, real beta, real* c,
                   index_t ldc) noexcept;

// ---- threaded host path ---------------------------------------------------
//
// Parallel variants over the process-default ThreadPool (common/par.h),
// used by the blocked CGS2 reorthogonalization where a single level-2 call
// spans the whole Lanczos basis, and by the thick restart and Ritz
// extraction (gemm_par).  Every output element is written by exactly one
// worker with the serial kernel's summation order, so each kernel is
// bitwise equal to its serial counterpart at any worker count.  Inputs
// below an internal work threshold run the serial kernels, so these are
// safe drop-ins at any size.  Like every par.h loop they are all-or-throw
// under a hard cancel.

/// Parallel gemv: rows of A are independent dots, split across workers.
void gemv_par(index_t m, index_t n, real alpha, const real* a, index_t lda,
              const real* x, real beta, real* y);

/// Parallel gemv_t: each worker owns a contiguous slice of output columns
/// and sweeps all rows of A over it (unit-stride inner loop, race-free).
void gemv_t_par(index_t m, index_t n, real alpha, const real* a, index_t lda,
                const real* x, real beta, real* y);

/// Parallel gemm: each worker runs the blocked gemm on one contiguous slice
/// of output columns, so C is memcmp-equal to gemm's.
void gemm_par(index_t m, index_t n, index_t k, real alpha, const real* a,
              index_t lda, const real* b, index_t ldb, real beta, real* c,
              index_t ldc);

}  // namespace fastsc::hblas
