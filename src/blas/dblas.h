// Device dense BLAS subset (cuBLAS stand-in).
//
// Mirrors the cuBLAS calls the paper's k-means and similarity kernels make:
// level-1 (dot/nrm2/axpy/scal), level-2 (gemv) and the level-3 gemm used for
// the pairwise-distance update S = S - 2 V C^T (Eq. 16).  All pointers are
// device pointers; execution is parallel over the context's pool and metered
// as kernel time.
#pragma once

#include "common/types.h"
#include "device/device.h"

namespace fastsc::dblas {

using device::DeviceContext;

[[nodiscard]] real dot(DeviceContext& ctx, index_t n, const real* x,
                       const real* y);

[[nodiscard]] real nrm2(DeviceContext& ctx, index_t n, const real* x);

void axpy(DeviceContext& ctx, index_t n, real alpha, const real* x, real* y);

void scal(DeviceContext& ctx, index_t n, real alpha, real* x);

void copy(DeviceContext& ctx, index_t n, const real* x, real* y);

/// y = alpha * A @ x + beta * y; A m x n row-major (device).
void gemv(DeviceContext& ctx, index_t m, index_t n, real alpha, const real* a,
          index_t lda, const real* x, real beta, real* y);

/// C = alpha * A @ B + beta * C (row-major, device); parallel over row panels.
void gemm(DeviceContext& ctx, index_t m, index_t n, index_t k, real alpha,
          const real* a, index_t lda, const real* b, index_t ldb, real beta,
          real* c, index_t ldc);

/// C = alpha * A @ B^T + beta * C; the k-means distance-matrix workhorse.
void gemm_nt(DeviceContext& ctx, index_t m, index_t n, index_t k, real alpha,
             const real* a, index_t lda, const real* b, index_t ldb, real beta,
             real* c, index_t ldc);

/// rownorms[i] = sum_j A[i,j]^2 for A m x n row-major — the Vnorm / Cnorm
/// vectors of Eq. 13/14.
void row_squared_norms(DeviceContext& ctx, index_t m, index_t n, const real* a,
                       index_t lda, real* rownorms);

}  // namespace fastsc::dblas
