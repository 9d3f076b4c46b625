#include "blas/hblas.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/par.h"

namespace fastsc::hblas {

real dot(index_t n, const real* x, const real* y) noexcept {
  real acc = 0;
  for (index_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

real nrm2(index_t n, const real* x) noexcept {
  // Two-pass scaled norm: robust to overflow/underflow like reference BLAS.
  real amax = 0;
  for (index_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(x[i]));
  if (amax == 0) return 0;
  real acc = 0;
  for (index_t i = 0; i < n; ++i) {
    const real v = x[i] / amax;
    acc += v * v;
  }
  return amax * std::sqrt(acc);
}

void axpy(index_t n, real alpha, const real* x, real* y) noexcept {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(index_t n, real alpha, real* x) noexcept {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

void copy(index_t n, const real* x, real* y) noexcept {
  if (n > 0) std::memcpy(y, x, static_cast<usize>(n) * sizeof(real));
}

void gemv(index_t m, index_t n, real alpha, const real* a, index_t lda,
          const real* x, real beta, real* y) noexcept {
  for (index_t i = 0; i < m; ++i) {
    const real* row = a + i * lda;
    real acc = 0;
    for (index_t j = 0; j < n; ++j) acc += row[j] * x[j];
    // beta == 0 is pure overwrite: never read y (it may be uninitialized).
    y[i] = beta == 0 ? alpha * acc : alpha * acc + beta * y[i];
  }
}

void gemv_t(index_t m, index_t n, real alpha, const real* a, index_t lda,
            const real* x, real beta, real* y) noexcept {
  if (beta == 0) {
    for (index_t j = 0; j < n; ++j) y[j] = 0;
  } else if (beta != 1) {
    scal(n, beta, y);
  }
  // Accumulate row by row: y += alpha * x[i] * A[i,:] — unit-stride inner loop.
  for (index_t i = 0; i < m; ++i) {
    const real s = alpha * x[i];
    if (s == 0) continue;
    const real* row = a + i * lda;
    for (index_t j = 0; j < n; ++j) y[j] += s * row[j];
  }
}

namespace {

// Block sizes tuned for L1/L2 residency of double panels.
constexpr index_t kBlockM = 64;
constexpr index_t kBlockN = 128;
constexpr index_t kBlockK = 64;

inline void scale_c(index_t m, index_t n, real beta, real* c,
                    index_t ldc) noexcept {
  if (beta == 1) return;
  for (index_t i = 0; i < m; ++i) {
    real* row = c + i * ldc;
    if (beta == 0) {
      for (index_t j = 0; j < n; ++j) row[j] = 0;
    } else {
      for (index_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

}  // namespace

void gemm(index_t m, index_t n, index_t k, real alpha, const real* a,
          index_t lda, const real* b, index_t ldb, real beta, real* c,
          index_t ldc) noexcept {
  scale_c(m, n, beta, c, ldc);
  if (alpha == 0 || m == 0 || n == 0 || k == 0) return;
  for (index_t i0 = 0; i0 < m; i0 += kBlockM) {
    const index_t i1 = std::min(i0 + kBlockM, m);
    for (index_t l0 = 0; l0 < k; l0 += kBlockK) {
      const index_t l1 = std::min(l0 + kBlockK, k);
      for (index_t j0 = 0; j0 < n; j0 += kBlockN) {
        const index_t j1 = std::min(j0 + kBlockN, n);
        for (index_t i = i0; i < i1; ++i) {
          real* crow = c + i * ldc;
          const real* arow = a + i * lda;
          for (index_t l = l0; l < l1; ++l) {
            const real av = alpha * arow[l];
            if (av == 0) continue;
            const real* brow = b + l * ldb;
            for (index_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

void gemm_nt(index_t m, index_t n, index_t k, real alpha, const real* a,
             index_t lda, const real* b, index_t ldb, real beta, real* c,
             index_t ldc) noexcept {
  scale_c(m, n, beta, c, ldc);
  if (alpha == 0 || m == 0 || n == 0 || k == 0) return;
  // C[i,j] += alpha * dot(A[i,:], B[j,:]) — both operands row-major, so the
  // inner dot is unit-stride on both sides; block for B panel reuse.
  for (index_t j0 = 0; j0 < n; j0 += kBlockM) {
    const index_t j1 = std::min(j0 + kBlockM, n);
    for (index_t i = 0; i < m; ++i) {
      const real* arow = a + i * lda;
      real* crow = c + i * ldc;
      for (index_t j = j0; j < j1; ++j) {
        const real* brow = b + j * ldb;
        real acc = 0;
        for (index_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
        crow[j] += alpha * acc;
      }
    }
  }
}

void gemm_naive(index_t m, index_t n, index_t k, real alpha, const real* a,
                index_t lda, const real* b, index_t ldb, real beta, real* c,
                index_t ldc) noexcept {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real acc = 0;
      for (index_t l = 0; l < k; ++l) acc += a[i * lda + l] * b[l * ldb + j];
      c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
    }
  }
}

void gemm_nt_naive(index_t m, index_t n, index_t k, real alpha, const real* a,
                   index_t lda, const real* b, index_t ldb, real beta, real* c,
                   index_t ldc) noexcept {
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real acc = 0;
      for (index_t l = 0; l < k; ++l) acc += a[i * lda + l] * b[j * ldb + l];
      c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
    }
  }
}

namespace {

// Below this many flops the fork/join overhead dominates any speedup, so
// the _par entry points fall back to the serial kernels.
constexpr index_t kParMinWork = 1 << 14;

// The same cut for gemm_par, in multiply-adds (m * n * k): a pool dispatch
// costs tens of microseconds, about what the serial kernel needs for this
// much work.
constexpr index_t kGemmParMinWork = 1 << 16;

}  // namespace

void gemv_par(index_t m, index_t n, real alpha, const real* a, index_t lda,
              const real* x, real beta, real* y) {
  if (m * n < kParMinWork) {
    gemv(m, n, alpha, a, lda, x, beta, y);
    return;
  }
  parallel_for(index_t{0}, m, [&](index_t i) {
    const real* row = a + i * lda;
    real acc = 0;
    for (index_t j = 0; j < n; ++j) acc += row[j] * x[j];
    y[i] = beta == 0 ? alpha * acc : alpha * acc + beta * y[i];
  });
}

void gemv_t_par(index_t m, index_t n, real alpha, const real* a, index_t lda,
                const real* x, real beta, real* y) {
  if (m * n < kParMinWork) {
    gemv_t(m, n, alpha, a, lda, x, beta, y);
    return;
  }
  ThreadPool& pool = default_thread_pool();
  const auto slices = static_cast<index_t>(pool.worker_count());
  // One contiguous column slice per worker; each worker sweeps every row of
  // A over its slice (unit-stride in both A and y), so no output element is
  // shared and the per-column accumulation order matches the serial kernel.
  parallel_for(pool, index_t{0}, slices, [&](index_t s) {
    const index_t j0 = (n * s) / slices;
    const index_t j1 = (n * (s + 1)) / slices;
    if (j0 == j1) return;
    if (beta == 0) {
      for (index_t j = j0; j < j1; ++j) y[j] = 0;
    } else if (beta != 1) {
      for (index_t j = j0; j < j1; ++j) y[j] *= beta;
    }
    for (index_t i = 0; i < m; ++i) {
      const real s2 = alpha * x[i];
      if (s2 == 0) continue;
      const real* row = a + i * lda;
      for (index_t j = j0; j < j1; ++j) y[j] += s2 * row[j];
    }
  });
}

void gemm_par(index_t m, index_t n, index_t k, real alpha, const real* a,
              index_t lda, const real* b, index_t ldb, real beta, real* c,
              index_t ldc) {
  if (m * n * k < kGemmParMinWork) {
    gemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    return;
  }
  ThreadPool& pool = default_thread_pool();
  const auto slices = static_cast<index_t>(pool.worker_count());
  // The serial kernel accumulates each C element over l = 0..k-1 in order,
  // whatever its column blocking, so running it on a column slice computes
  // exactly the serial bits for that slice.
  parallel_for(pool, index_t{0}, slices, [&](index_t s) {
    const index_t j0 = (n * s) / slices;
    const index_t j1 = (n * (s + 1)) / slices;
    if (j0 == j1) return;
    gemm(m, j1 - j0, k, alpha, a, lda, b + j0, ldb, beta, c + j0, ldc);
  });
}

}  // namespace fastsc::hblas
