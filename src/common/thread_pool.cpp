#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>

#include "common/cancel.h"
#include "obs/attribution.h"

namespace fastsc {

namespace {

/// CPUs the calling thread may run on.  A taskset or cpuset limit shows in
/// the affinity mask but not in hardware_concurrency(), and a pool larger
/// than the mask only time-slices its workers.
usize affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<usize>(CPU_COUNT(&set));
  }
  return std::max<usize>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(usize workers) {
  const usize n = workers == 0 ? affinity_cpu_count() : workers;
  // Worker 0 is the calling thread; spawn n-1 helpers.
  threads_.reserve(n - 1);
  for (usize i = 1; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_workers(const std::function<void(usize)>& fn) {
  jobs_dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (threads_.empty()) {
    fn(0);
    return;
  }
  // One bulk job at a time: concurrent service jobs queue here rather than
  // clobbering the single job slot.
  std::lock_guard dispatch(dispatch_mu_);
  {
    std::lock_guard lock(mu_);
    job_ = &fn;
    job_governor_ = cancel::detail::bound_governor();
    const obs::ObsBindings bindings = obs::current_obs_bindings();
    job_attribution_ = bindings.attribution;
    job_trace_ = bindings.trace;
    job_site_ = bindings.site;
    remaining_ = threads_.size();
    ++job_epoch_;
  }
  work_ready_.notify_all();
  fn(0);  // calling thread participates as worker 0
  std::unique_lock lock(mu_);
  work_done_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  job_governor_ = nullptr;
  job_attribution_ = nullptr;
  job_trace_ = nullptr;
  job_site_ = nullptr;
}

void ThreadPool::worker_loop(usize worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(usize)>* job = nullptr;
    cancel::Governor* job_governor = nullptr;
    obs::ObsBindings job_obs;
    {
      std::unique_lock lock(mu_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && job_epoch_ != seen_epoch);
      });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
      job_governor = job_governor_;
      job_obs.attribution = job_attribution_;
      job_obs.trace = job_trace_;
      job_obs.site = job_site_;
    }
    {
      // Poll sites inside the chunk consult the dispatcher's governor, so a
      // per-job budget cancels its own workers and nobody else's; the same
      // propagation gives trace spans and attribution records emitted from
      // worker chunks the dispatcher's per-job destination.
      cancel::GovernorBindScope bind(job_governor);
      obs::ObsBindScope obs_bind(job_obs);
      (*job)(worker_index);
    }
    {
      std::lock_guard lock(mu_);
      if (--remaining_ == 0) work_done_.notify_all();
    }
  }
}

ThreadPool& default_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fastsc
