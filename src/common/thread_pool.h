// A small fixed-size thread pool with blocking bulk-dispatch.
//
// This pool is the execution engine under the simulated device runtime
// (device::DeviceContext): kernel launches decompose their global index
// space into contiguous chunks, one per worker, mirroring how CUDA thread
// blocks are scheduled across streaming multiprocessors.  The pool supports
// nested-free, synchronous `run_blocks(n, fn)` dispatch — the caller blocks
// until all workers finish, which matches CUDA's default-stream semantics
// where a kernel launch followed by a transfer is ordered.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace fastsc::cancel {
class Governor;
}  // namespace fastsc::cancel

namespace fastsc::obs {
class AttributionRegistry;
class TraceRecorder;
}  // namespace fastsc::obs

namespace fastsc {

class ThreadPool {
 public:
  /// Create a pool with `workers` threads; 0 means one per CPU in the
  /// calling thread's affinity mask (hardware_concurrency if that is
  /// unavailable).
  explicit ThreadPool(usize workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] usize worker_count() const noexcept { return threads_.size() + 1; }

  /// Execute fn(worker_index) for worker_index in [0, worker_count()), in
  /// parallel, and block until all invocations return.  Worker 0 runs on the
  /// calling thread so a 1-worker pool degenerates to a plain call.
  ///
  /// Concurrent callers are serialized (dispatch_mu_): service jobs share
  /// one pool, so a second job's bulk dispatch waits for the first to drain
  /// instead of corrupting the job slot.  The caller's thread-bound
  /// cancellation governor (cancel::GovernorBindScope) is propagated into
  /// the helper workers for the duration of the job, so per-job budgets and
  /// cancellation are honored inside parallel kernels.
  void run_workers(const std::function<void(usize)>& fn);

  /// Bulk jobs dispatched over this pool's lifetime (obs metrics).
  [[nodiscard]] std::uint64_t jobs_dispatched() const noexcept {
    return jobs_dispatched_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(usize worker_index);

  std::vector<std::thread> threads_;
  std::mutex dispatch_mu_;  ///< serializes concurrent run_workers callers
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  const std::function<void(usize)>* job_ = nullptr;
  cancel::Governor* job_governor_ = nullptr;  ///< dispatcher's bound governor
  /// Dispatcher's observability bindings (per-job attribution registry,
  /// trace recorder, site scope), re-bound inside each helper worker for
  /// the job's duration — same propagation contract as the governor.
  obs::AttributionRegistry* job_attribution_ = nullptr;
  obs::TraceRecorder* job_trace_ = nullptr;
  const char* job_site_ = nullptr;
  std::uint64_t job_epoch_ = 0;
  usize remaining_ = 0;
  bool shutdown_ = false;
  std::atomic<std::uint64_t> jobs_dispatched_{0};
};

/// Process-wide default pool, sized like ThreadPool(0) from the affinity
/// mask of the thread that first asks for it.
ThreadPool& default_thread_pool();

}  // namespace fastsc
