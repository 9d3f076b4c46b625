// Data-parallel loop over a ThreadPool.
//
// parallel_for splits [begin, end) into one contiguous chunk per worker —
// the same owner-computes decomposition the paper's CUDA kernels use (one
// logical GPU thread per row / edge / data point, scheduled in blocks).
// There is deliberately no host reduction here: a fold over per-worker
// partials would change its bits with the worker count.  Reductions fold
// fixed-size blocks in order instead (device::reduce).
#pragma once

#include <functional>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace fastsc {

namespace par_detail {

/// Iterations a worker runs between cancellation checks: large enough that
/// the disarmed relaxed load vanishes in the loop cost, small enough to
/// bound work after a hard cancellation fires.
inline constexpr index_t kCancelStride = 4096;

/// Run body over [lo, hi) in kCancelStride sub-blocks, stopping early when a
/// hard cancellation is pending.  Workers must not throw through
/// ThreadPool::run_workers, so they only stop; the coordinator surfaces the
/// error after the join, making every parallel primitive all-or-throw (a
/// torn output buffer never escapes).
template <class Body>
void run_cancellable(index_t lo, index_t hi, const Body& body) {
  for (index_t blk = lo; blk < hi; blk += kCancelStride) {
    if (cancel::interrupted("par.chunk")) return;
    const index_t stop = blk + kCancelStride < hi ? blk + kCancelStride : hi;
    for (index_t i = blk; i < stop; ++i) body(i);
  }
}

/// Coordinator-side check after the join: throws CancelledError for the hard
/// causes the workers stop on.  Soft anytime expiries pass through untouched
/// — workers do not stop for them, so the primitive's output is complete and
/// the deadline surfaces at the caller's next algorithm boundary.
inline void surface_interrupt() {
  if (cancel::interrupted("par.chunk")) cancel::poll("par.chunk");
}

}  // namespace par_detail

/// Invoke body(i) for every i in [begin, end) using the pool.
/// body must be safe to call concurrently for distinct i.
template <class Body>
void parallel_for(ThreadPool& pool, index_t begin, index_t end, const Body& body) {
  const index_t n = end - begin;
  if (n <= 0) return;
  const auto workers = static_cast<index_t>(pool.worker_count());
  if (workers == 1 || n == 1) {
    par_detail::run_cancellable(begin, end, body);
    par_detail::surface_interrupt();
    return;
  }
  const index_t chunk = (n + workers - 1) / workers;
  std::function<void(usize)> job = [&](usize w) {
    const index_t lo = begin + static_cast<index_t>(w) * chunk;
    const index_t hi = lo + chunk < end ? lo + chunk : end;
    par_detail::run_cancellable(lo, hi, body);
  };
  pool.run_workers(job);
  par_detail::surface_interrupt();
}

/// parallel_for on the process-default pool.
template <class Body>
void parallel_for(index_t begin, index_t end, const Body& body) {
  parallel_for(default_thread_pool(), begin, end, body);
}

}  // namespace fastsc
