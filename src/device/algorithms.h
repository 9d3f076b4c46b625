// Thrust-like device algorithms.
//
// The paper leans on the Thrust library for sort / transform / reduce style
// primitives inside the k-means and graph-construction kernels.  What the
// pipeline still calls is here — fill and the blocked reduction — over
// DeviceBuffer storage, executed on the device context's pool and metered
// as kernel time.  The paper's sort before cusparseXcoo2csr is folded into
// sparse::device_coo2csr's stable counting pass.
//
// All functions operate on raw device pointers (like thrust::device_ptr) and
// assume the caller keeps the data on one context.
#pragma once

#include <algorithm>
#include <vector>

#include "device/device.h"

namespace fastsc::device {

namespace detail {

/// Attribution site for a generic primitive: an enclosing AttrSiteScope (the
/// semantically meaningful caller, e.g. "laplacian.normalize") wins over the
/// algo.* fallback name, so primitives invoked inside a tagged routine fold
/// into that routine's bucket instead of a generic one.
inline const char* algo_site(const char* site) noexcept {
  return obs::current_attr_site() != nullptr ? nullptr : site;
}

inline LaunchConfig algo_cfg(const char* site, double flops = -1.0,
                             double bytes_read = -1.0,
                             double bytes_written = -1.0) {
  LaunchConfig cfg;
  cfg.site = algo_site(site);
  cfg.flops = flops;
  cfg.bytes_read = bytes_read;
  cfg.bytes_written = bytes_written;
  return cfg;
}

inline obs::KernelCost algo_cost(const char* site, double flops,
                                 double bytes_read, double bytes_written) {
  obs::KernelCost cost;
  cost.site = algo_site(site);
  cost.flops = flops;
  cost.bytes_read = bytes_read;
  cost.bytes_written = bytes_written;
  return cost;
}

}  // namespace detail

/// Fill [out, out+n) with value.
template <class T>
void fill(DeviceContext& ctx, T* out, index_t n, T value) {
  launch(ctx, n, [=](index_t i) { out[i] = value; },
         detail::algo_cfg("algo.fill", static_cast<double>(n), 0.0,
                          static_cast<double>(n) * sizeof(T)));
}

/// Blocked parallel reduction: each fixed kReduceBlock-element block folds
/// serially from `init`, then the block partials fold in ascending order
/// into `init`.  The combine order depends on n alone, never on the worker
/// count, so floating-point sums are bitwise reproducible across pools.
inline constexpr index_t kReduceBlock = 4096;

template <class T, class Combine>
[[nodiscard]] T reduce(DeviceContext& ctx, const T* in, index_t n, T init,
                       const Combine& combine) {
  if (n <= 0) return init;
  WallTimer t;
  const index_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<T> partials(static_cast<usize>(blocks), init);
  const auto fold_blocks = [&](index_t b0, index_t b1) {
    for (index_t b = b0; b < b1; ++b) {
      const index_t hi = std::min(n, (b + 1) * kReduceBlock);
      T acc = init;
      for (index_t i = b * kReduceBlock; i < hi; ++i) acc = combine(acc, in[i]);
      partials[static_cast<usize>(b)] = acc;
    }
  };
  const auto workers = static_cast<index_t>(ctx.pool().worker_count());
  if (workers == 1 || blocks == 1) {
    fold_blocks(0, blocks);
  } else {
    const index_t chunk = (blocks + workers - 1) / workers;
    std::function<void(usize)> job = [&](usize w) {
      const index_t lo = static_cast<index_t>(w) * chunk;
      fold_blocks(std::min(lo, blocks), std::min(lo + chunk, blocks));
    };
    ctx.run_compute(job);
  }
  T result = init;
  for (const T& p : partials) result = combine(result, p);
  ctx.record_kernel(t.seconds(), -1.0,
                    detail::algo_cost("algo.reduce", static_cast<double>(n),
                                      static_cast<double>(n) * sizeof(T),
                                      static_cast<double>(sizeof(T))));
  return result;
}

/// Sum reduction.
template <class T>
[[nodiscard]] T reduce_sum(DeviceContext& ctx, const T* in, index_t n) {
  return reduce(ctx, in, n, T{0}, [](T a, T b) { return a + b; });
}

}  // namespace fastsc::device
