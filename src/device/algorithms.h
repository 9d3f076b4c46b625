// Thrust-like device algorithms.
//
// The paper leans on the Thrust library for sort / transform / reduce style
// primitives inside the k-means and graph-construction kernels; this header
// provides the equivalents over DeviceBuffer storage, executed on the device
// context's pool and metered as kernel time.
//
// All functions operate on raw device pointers (like thrust::device_ptr) and
// assume the caller keeps the data on one context.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "device/device.h"

namespace fastsc::device {

namespace detail {

/// Attribution site for a generic primitive: an enclosing AttrSiteScope (the
/// semantically meaningful caller, e.g. "sparse.sort_coo") wins over the
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

/// out[i] = i + start.
template <class T>
void sequence(DeviceContext& ctx, T* out, index_t n, T start = T{0}) {
  launch(ctx, n, [=](index_t i) { out[i] = start + static_cast<T>(i); },
         detail::algo_cfg("algo.sequence", static_cast<double>(n), 0.0,
                          static_cast<double>(n) * sizeof(T)));
}

/// out[i] = op(in[i]).
template <class T, class U, class UnaryOp>
void transform(DeviceContext& ctx, const T* in, U* out, index_t n,
               const UnaryOp& op) {
  launch(ctx, n, [=](index_t i) { out[i] = op(in[i]); },
         detail::algo_cfg("algo.transform", static_cast<double>(n),
                          static_cast<double>(n) * sizeof(T),
                          static_cast<double>(n) * sizeof(U)));
}

/// out[i] = op(a[i], b[i]).
template <class T, class U, class V, class BinaryOp>
void transform(DeviceContext& ctx, const T* a, const U* b, V* out, index_t n,
               const BinaryOp& op) {
  launch(ctx, n, [=](index_t i) { out[i] = op(a[i], b[i]); },
         detail::algo_cfg("algo.transform", static_cast<double>(n),
                          static_cast<double>(n) * (sizeof(T) + sizeof(U)),
                          static_cast<double>(n) * sizeof(V)));
}

/// out[i] = in[map[i]].
template <class T, class I>
void gather(DeviceContext& ctx, const I* map, const T* in, T* out, index_t n) {
  launch(ctx, n, [=](index_t i) { out[i] = in[map[i]]; },
         detail::algo_cfg("algo.gather", static_cast<double>(n),
                          static_cast<double>(n) * (sizeof(I) + sizeof(T)),
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

/// Stable key-value sort by key (thrust::sort_by_key): per-worker chunks are
/// sorted in parallel, then merged pairwise.
template <class K, class V>
void sort_by_key(DeviceContext& ctx, K* keys, V* values, index_t n) {
  if (n <= 1) return;
  WallTimer t;
  const double pair_bytes =
      static_cast<double>(n) * (sizeof(K) + sizeof(V));
  // Pack into pairs for cache-friendly merging.
  std::vector<std::pair<K, V>> tmp(static_cast<usize>(n));
  launch(ctx, n, [&](index_t i) {
    tmp[static_cast<usize>(i)] = {keys[i], values[i]};
  }, detail::algo_cfg("algo.sort_by_key", static_cast<double>(n), pair_bytes,
                      pair_bytes));
  const auto workers = static_cast<index_t>(ctx.pool().worker_count());
  const index_t chunk = (n + workers - 1) / workers;
  auto cmp = [](const std::pair<K, V>& a, const std::pair<K, V>& b) {
    return a.first < b.first;
  };
  std::function<void(usize)> sort_job = [&](usize w) {
    const index_t lo = static_cast<index_t>(w) * chunk;
    const index_t hi = lo + chunk < n ? lo + chunk : n;
    if (lo < hi) {
      std::stable_sort(tmp.begin() + lo, tmp.begin() + hi, cmp);
    }
  };
  if (workers == 1) {
    sort_job(0);
  } else {
    ctx.run_compute(sort_job);
  }
  // Pairwise merge passes (log(workers) of them).
  for (index_t width = chunk; width < n; width *= 2) {
    for (index_t lo = 0; lo + width < n; lo += 2 * width) {
      const index_t mid = lo + width;
      const index_t hi = std::min(lo + 2 * width, n);
      std::inplace_merge(tmp.begin() + lo, tmp.begin() + mid, tmp.begin() + hi,
                         cmp);
    }
  }
  launch(ctx, n, [&](index_t i) {
    keys[i] = tmp[static_cast<usize>(i)].first;
    values[i] = tmp[static_cast<usize>(i)].second;
  }, detail::algo_cfg("algo.sort_by_key", static_cast<double>(n), pair_bytes,
                      pair_bytes));
  const double comparisons =
      static_cast<double>(n) *
      std::max(1.0, std::log2(static_cast<double>(n)));
  ctx.record_kernel(t.seconds(), -1.0,
                    detail::algo_cost("algo.sort_by_key", comparisons,
                                      pair_bytes, pair_bytes));
}

}  // namespace fastsc::device
