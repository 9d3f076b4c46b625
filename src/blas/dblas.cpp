#include "blas/dblas.h"

#include <algorithm>
#include <cmath>

#include "blas/hblas.h"
#include "device/algorithms.h"

namespace fastsc::dblas {

namespace {

// blas.* sites yield to an enclosing obs::AttrSiteScope (same policy as the
// device algo.* primitives), so a tagged caller like "kmeans.lloyd" absorbs
// the BLAS work it drives while bare callers still land in a named bucket.
using device::detail::algo_cfg;
using device::detail::algo_cost;

constexpr double kReal = static_cast<double>(sizeof(real));

}  // namespace

real dot(DeviceContext& ctx, index_t n, const real* x, const real* y) {
  if (n <= 0) return 0;
  WallTimer t;
  const auto workers = static_cast<index_t>(ctx.pool().worker_count());
  real result = 0;
  if (workers == 1) {
    result = hblas::dot(n, x, y);
  } else {
    const index_t chunk = (n + workers - 1) / workers;
    std::vector<real> partials(static_cast<usize>(workers), 0.0);
    std::function<void(usize)> job = [&](usize w) {
      const index_t lo = static_cast<index_t>(w) * chunk;
      const index_t hi = lo + chunk < n ? lo + chunk : n;
      if (lo < hi) partials[w] = hblas::dot(hi - lo, x + lo, y + lo);
    };
    ctx.run_compute(job);
    for (real p : partials) result += p;
  }
  ctx.record_kernel(t.seconds(), -1.0,
                    algo_cost("blas.dot", 2.0 * n, 2.0 * n * kReal, kReal));
  return result;
}

real nrm2(DeviceContext& ctx, index_t n, const real* x) {
  return std::sqrt(dot(ctx, n, x, x));
}

void axpy(DeviceContext& ctx, index_t n, real alpha, const real* x, real* y) {
  device::launch(ctx, n, [=](index_t i) { y[i] += alpha * x[i]; },
                 algo_cfg("blas.axpy", 2.0 * n, 2.0 * n * kReal, n * kReal));
}

void scal(DeviceContext& ctx, index_t n, real alpha, real* x) {
  device::launch(ctx, n, [=](index_t i) { x[i] *= alpha; },
                 algo_cfg("blas.scal", static_cast<double>(n), n * kReal,
                          n * kReal));
}

void copy(DeviceContext& ctx, index_t n, const real* x, real* y) {
  device::launch(ctx, n, [=](index_t i) { y[i] = x[i]; },
                 algo_cfg("blas.copy", static_cast<double>(n), n * kReal,
                          n * kReal));
}

void gemv(DeviceContext& ctx, index_t m, index_t n, real alpha, const real* a,
          index_t lda, const real* x, real beta, real* y) {
  const double mn = static_cast<double>(m) * n;
  device::launch(ctx, m,
                 [=](index_t i) {
                   const real* row = a + i * lda;
                   real acc = 0;
                   for (index_t j = 0; j < n; ++j) acc += row[j] * x[j];
                   y[i] = alpha * acc + beta * y[i];
                 },
                 algo_cfg("blas.gemv", 2.0 * mn, (mn + n + m) * kReal,
                          m * kReal));
}

namespace {

/// Run a blocked host-gemm over a horizontal panel of C rows; the device gemm
/// parallelizes across row panels (one per worker), each worker calling the
/// cache-blocked serial kernel on its slice.
template <class PanelKernel>
void parallel_row_panels(DeviceContext& ctx, index_t m,
                         const obs::KernelCost& cost,
                         const PanelKernel& panel) {
  if (m <= 0) return;
  WallTimer t;
  const auto workers = static_cast<index_t>(ctx.pool().worker_count());
  const index_t chunk = (m + workers - 1) / workers;
  std::function<void(usize)> job = [&](usize w) {
    const index_t lo = static_cast<index_t>(w) * chunk;
    const index_t hi = lo + chunk < m ? lo + chunk : m;
    if (lo < hi) panel(lo, hi);
  };
  if (workers == 1) {
    job(0);
  } else {
    ctx.run_compute(job);
  }
  ctx.record_kernel(t.seconds(), -1.0, cost);
}

obs::KernelCost gemm_cost(index_t m, index_t n, index_t k) {
  const double md = m, nd = n, kd = k;
  return algo_cost("blas.gemm", 2.0 * md * nd * kd,
                   (md * kd + kd * nd + md * nd) * kReal, md * nd * kReal);
}

}  // namespace

void gemm(DeviceContext& ctx, index_t m, index_t n, index_t k, real alpha,
          const real* a, index_t lda, const real* b, index_t ldb, real beta,
          real* c, index_t ldc) {
  parallel_row_panels(ctx, m, gemm_cost(m, n, k),
                      [=](index_t lo, index_t hi) {
    hblas::gemm(hi - lo, n, k, alpha, a + lo * lda, lda, b, ldb, beta,
                c + lo * ldc, ldc);
  });
}

void gemm_nt(DeviceContext& ctx, index_t m, index_t n, index_t k, real alpha,
             const real* a, index_t lda, const real* b, index_t ldb, real beta,
             real* c, index_t ldc) {
  parallel_row_panels(ctx, m, gemm_cost(m, n, k),
                      [=](index_t lo, index_t hi) {
    hblas::gemm_nt(hi - lo, n, k, alpha, a + lo * lda, lda, b, ldb, beta,
                   c + lo * ldc, ldc);
  });
}

void row_squared_norms(DeviceContext& ctx, index_t m, index_t n, const real* a,
                       index_t lda, real* rownorms) {
  const double mn = static_cast<double>(m) * n;
  device::launch(ctx, m,
                 [=](index_t i) {
                   const real* row = a + i * lda;
                   real acc = 0;
                   for (index_t j = 0; j < n; ++j) acc += row[j] * row[j];
                   rownorms[i] = acc;
                 },
                 algo_cfg("blas.row_norms", 2.0 * mn, mn * kReal, m * kReal));
}

}  // namespace fastsc::dblas
