// fastsc::Service implementation: priority queue + admission control +
// executor threads + result cache + warm-start re-solves.
//
// Concurrency model: one Impl mutex guards the queue, the job table, and
// the byte reservations; executors copy what they need out under the lock
// and solve unlocked.  Each running job owns a stack-local
// cancel::Governor bound to the executing thread (GovernorBindScope), so
// the pipeline's internal RunScope/poll sites govern exactly that job —
// deadlines and cancel() never cross jobs.

#include "fastsc/service.h"

#include <chrono>
#include <condition_variable>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/log.h"
#include "core/fingerprint.h"
#include "device/device.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/result_cache.h"

namespace fastsc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Device bytes a job will need, from the same arithmetic the pipeline
/// allocates: the COO staging copy, the normalized CSR, and the iteration
/// vectors (x, y staged per wave, plus two device scratch vectors).
std::uint64_t estimate_device_bytes(const Job& job) {
  const auto nnz = static_cast<std::uint64_t>(job.graph.nnz());
  const auto n = static_cast<std::uint64_t>(job.graph.rows);
  const std::uint64_t coo = nnz * (2 * sizeof(index_t) + sizeof(real));
  const std::uint64_t csr =
      nnz * (sizeof(index_t) + sizeof(real)) + (n + 1) * sizeof(index_t);
  const std::uint64_t vectors = 4 * n * sizeof(real);
  return coo + csr + vectors;
}

/// Observe one finished job into the SLO histograms.  queue_ms covers
/// admission -> dispatch, solve_ms dispatch -> terminal (0 on cache hits),
/// and latency is their sum — the queue-wait vs solve split the Prometheus
/// dump exposes.
void observe_slo(JobPriority priority, double queue_ms, double solve_ms) {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.histogram(std::string("slo.latency_ms.") + job_class_name(priority),
                slo_ms_edges())
      .observe(queue_ms + solve_ms);
  reg.histogram("slo.queue_ms", slo_ms_edges()).observe(queue_ms);
  reg.histogram("slo.solve_ms", slo_ms_edges()).observe(solve_ms);
}

}  // namespace

const char* job_class_name(JobPriority p) {
  switch (p) {
    case JobPriority::kLow: return "low";
    case JobPriority::kHigh: return "high";
    case JobPriority::kNormal: break;
  }
  return "normal";
}

std::vector<double> slo_ms_edges() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000};
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kOverloaded: return "overloaded";
  }
  return "?";
}

// --- Impl -------------------------------------------------------------------

struct Service::Impl {
  struct JobState {
    Job job;
    JobResult result;
    std::uint64_t reserved_bytes = 0;
    cancel::CancelSource cancel_source;
    Clock::time_point admitted_at{};
    bool terminal = false;
  };

  explicit Impl(ServiceConfig cfg, device::DeviceContext* ctx)
      : config(cfg),
        ctx(ctx),
        cache(cfg.enable_cache || cfg.enable_warm_start
                  ? cfg.cache_capacity_bytes
                  : 0) {
    const usize workers = config.workers < 1 ? 1 : config.workers;
    executors.reserve(workers);
    for (usize i = 0; i < workers; ++i) {
      executors.emplace_back([this] { executor_main(); });
    }
  }

  // Queue entries sort by (-priority, id): higher priority first, FIFO
  // within a priority class.
  using QueueKey = std::pair<int, JobId>;

  ServiceConfig config;
  device::DeviceContext* ctx = nullptr;
  service::ResultCache cache;

  mutable std::mutex mu;
  std::condition_variable work_cv;  ///< executors wait here
  std::condition_variable done_cv;  ///< wait() callers wait here
  std::map<JobId, JobState> jobs;
  std::set<QueueKey> queue;
  JobId next_id = 1;
  std::uint64_t reserved_bytes = 0;
  usize running = 0;
  bool stopping = false;  ///< executors exit once the queue is empty
  bool stopped = false;   ///< executors joined

  // service.* statistics (also mirrored as metrics counters by obs::bump()).
  std::uint64_t n_submitted = 0;
  std::uint64_t n_admitted = 0;
  std::uint64_t n_rejected = 0;
  std::uint64_t n_completed = 0;
  std::uint64_t n_failed = 0;
  std::uint64_t n_cancelled = 0;
  // Touched from run_job() outside the lock, hence atomic.
  std::atomic<std::uint64_t> n_cache_hits{0};
  std::atomic<std::uint64_t> n_cache_misses{0};

  std::vector<std::thread> executors;

  void finalize_locked(JobState& s, JobStatus status) {
    s.result.status = status;
    s.terminal = true;
    // The job's device-byte reservation is released at terminal transition,
    // whether it ever ran or not.
    reserved_bytes -= s.reserved_bytes;
    s.reserved_bytes = 0;
    // Drop the (potentially large) input graph; the result keeps the labels.
    s.job.graph = sparse::Coo{};
    switch (status) {
      case JobStatus::kCompleted:
        ++n_completed;
        obs::bump("service.jobs_completed");
        break;
      case JobStatus::kFailed:
        ++n_failed;
        obs::bump("service.jobs_failed");
        break;
      case JobStatus::kCancelled:
        ++n_cancelled;
        obs::bump("service.jobs_cancelled");
        break;
      default:
        break;
    }
    done_cv.notify_all();
  }

  void executor_main() {
    std::unique_lock lock(mu);
    for (;;) {
      work_cv.wait(lock, [this] { return stopping || !queue.empty(); });
      if (queue.empty()) {
        if (stopping) return;
        continue;
      }
      const JobId id = queue.begin()->second;
      queue.erase(queue.begin());
      JobState& s = jobs.at(id);
      s.result.status = JobStatus::kRunning;
      s.result.queue_ms = ms_between(s.admitted_at, Clock::now());
      ++running;
      lock.unlock();
      run_job(id, s);  // only this executor touches s while running
      lock.lock();
      --running;
    }
  }

  /// Solve one job.  `s.job` and `s.result` are owned by this executor
  /// until the terminal transition (taken under the lock at the end).
  void run_job(JobId id, JobState& s) {
    const Clock::time_point t0 = Clock::now();
    JobStatus end_status = JobStatus::kCompleted;

    // Per-job governor: every poll site and deadline check inside this
    // solve resolves to this instance for the duration of the job.  The
    // job's token always arms it; the deadline only when one is set.
    cancel::Governor governor;
    cancel::GovernorBindScope bind(&governor);

    // Per-job observability: device work mirrors into a job-local
    // attribution registry, and — when artifacts were requested — into a
    // job-local trace recorder tee'd at the process-wide one so the global
    // timeline stays complete.  Both ride ObsBindings into pool workers
    // alongside the governor.
    obs::AttributionRegistry job_attr;
    if (ctx != nullptr) job_attr.set_roofline(ctx->attribution().roofline());
    obs::AttrBindScope attr_bind(&job_attr);
    const bool artifacts = !config.job_artifacts_dir.empty();
    obs::TraceRecorder job_trace;
    if (artifacts) {
      job_trace.set_enabled(true);
      job_trace.set_tee(&obs::trace());  // nothing bound yet: the global one
    }
    obs::TraceBindScope trace_bind(artifacts ? &job_trace : nullptr);

    core::SpectralConfig cfg = s.job.config;
    cfg.cancel_token = s.cancel_source.token();
    const double deadline = s.job.deadline_ms > 0
                                ? s.job.deadline_ms
                                : config.default_deadline_ms;
    if (deadline > 0 && cfg.budget.wall_ms <= 0) {
      cfg.budget.wall_ms = deadline;
    }

    s.result.graph_fingerprint = core::graph_fingerprint(s.job.graph);
    s.result.config_fingerprint = core::config_fingerprint(cfg);
    const service::CacheKey key{s.result.graph_fingerprint,
                                s.result.config_fingerprint};

    bool cache_hit = false;
    try {
      obs::ScopedSpan span("job:" + (s.job.tag.empty()
                                         ? std::to_string(id)
                                         : s.job.tag),
                           "service");
      if (config.enable_cache) {
        if (std::optional<service::CacheEntry> hit = cache.lookup(key)) {
          ++n_cache_hits;
          cache_hit = true;
          s.result.cache_hit = true;
          s.result.spectral.labels = std::move(hit->labels);
          s.result.spectral.eigenvalues = std::move(hit->eigenvalues);
          s.result.spectral.n = hit->n;
          s.result.spectral.k = hit->k;
        } else {
          ++n_cache_misses;
        }
      }

      if (!cache_hit) {
        // Cache entries should carry a warm-startable checkpoint, so
        // capture whenever the result could be inserted.
        if (config.enable_cache || config.enable_warm_start) {
          cfg.capture_checkpoint = true;
        }
        if (config.enable_warm_start) {
          cfg.warm_start = cache.lookup_warm(
              s.result.config_fingerprint, s.job.graph.rows, s.job.warm_hint);
        }

        core::SpectralResult solved =
            core::spectral_cluster_graph(s.job.graph, cfg, ctx);
        s.result.warm_started = solved.warm_started;
        // An anytime answer is partial: the config fingerprint ignores the
        // deadline, so caching it would hand its labels to a later full
        // solve and its checkpoint to warm starts.
        if ((config.enable_cache || config.enable_warm_start) &&
            !solved.budget.anytime) {
          service::CacheEntry entry;
          entry.labels = solved.labels;
          entry.eigenvalues = solved.eigenvalues;
          entry.n = solved.n;
          entry.k = solved.k;
          entry.checkpoint = solved.checkpoint;
          entry.graph_fp = key.graph_fp;
          entry.config_fp = key.config_fp;
          cache.insert(std::move(entry));
        }
        s.result.spectral = std::move(solved);
      }
    } catch (const cancel::CancelledError& e) {
      end_status = JobStatus::kCancelled;
      s.result.error = e.what();
    } catch (const std::exception& e) {
      end_status = JobStatus::kFailed;
      s.result.error = e.what();
      FASTSC_LOG_WARN("service job " << id << " failed: " << e.what());
    }
    if (!cache_hit) s.result.solve_ms = ms_between(t0, Clock::now());
    observe_slo(s.job.priority, s.result.queue_ms, s.result.solve_ms);
    s.result.attribution = job_attr.report();
    if (artifacts) {
      const std::string stem =
          config.job_artifacts_dir + "/job_" + std::to_string(id);
      s.result.trace_path = stem + ".trace.json";
      s.result.attribution_path = stem + ".attribution.json";
      job_trace.write_json_file(s.result.trace_path);
      obs::write_attribution_json_file(s.result.attribution_path,
                                       s.result.attribution,
                                       job_attr.roofline());
    }
    std::lock_guard lock(mu);
    finalize_locked(s, end_status);
  }
};

// --- Service methods --------------------------------------------------------

Service::Service(ServiceConfig config, device::DeviceContext* ctx)
    : impl_(std::make_unique<Impl>(config, ctx)) {}

Service::~Service() { shutdown(/*drain=*/false); }

Service::Submitted Service::submit(Job job) {
  Impl& I = *impl_;
  std::lock_guard lock(I.mu);
  const JobId id = I.next_id++;
  ++I.n_submitted;
  obs::bump("service.jobs_submitted");

  Impl::JobState state;
  state.result.id = id;
  state.admitted_at = Clock::now();

  std::string reject;
  const char* reject_counter = nullptr;
  const std::uint64_t estimate = estimate_device_bytes(job);
  if (I.stopping) {
    reject = "service is shutting down";
    reject_counter = "service.jobs_rejected.shutdown";
  } else if (I.queue.size() >= I.config.max_queue_depth) {
    reject = "queue depth " + std::to_string(I.queue.size()) +
             " at limit " + std::to_string(I.config.max_queue_depth);
    reject_counter = "service.jobs_rejected.queue";
  } else if (I.config.job_arena_quota_bytes > 0 &&
             estimate > I.config.job_arena_quota_bytes) {
    reject = "job needs ~" + std::to_string(estimate) +
             " device bytes, above the per-job quota " +
             std::to_string(I.config.job_arena_quota_bytes);
    reject_counter = "service.jobs_rejected.quota";
  } else if (I.config.arena_budget_bytes > 0 &&
             I.reserved_bytes + estimate > I.config.arena_budget_bytes) {
    reject = "admitting ~" + std::to_string(estimate) +
             " device bytes would exceed the arena budget (" +
             std::to_string(I.reserved_bytes) + " of " +
             std::to_string(I.config.arena_budget_bytes) + " reserved)";
    reject_counter = "service.jobs_rejected.arena";
  }

  if (reject_counter != nullptr) {
    ++I.n_rejected;
    obs::bump("service.jobs_rejected");
    obs::bump(reject_counter);
    state.result.status = JobStatus::kOverloaded;
    state.result.error = reject;
    state.terminal = true;
    I.jobs.emplace(id, std::move(state));
    I.done_cv.notify_all();
    return Submitted{id, JobStatus::kOverloaded};
  }

  ++I.n_admitted;
  obs::bump("service.jobs_admitted");
  state.job = std::move(job);
  state.reserved_bytes = estimate;
  state.result.status = JobStatus::kQueued;
  I.reserved_bytes += estimate;
  const int prio = static_cast<int>(state.job.priority);
  I.jobs.emplace(id, std::move(state));
  I.queue.emplace(-prio, id);
  I.work_cv.notify_one();
  return Submitted{id, JobStatus::kQueued};
}

JobResult Service::wait(JobId id) {
  Impl& I = *impl_;
  std::unique_lock lock(I.mu);
  const auto it = I.jobs.find(id);
  if (it == I.jobs.end()) {
    throw std::invalid_argument("unknown job id " + std::to_string(id));
  }
  I.done_cv.wait(lock, [&] { return it->second.terminal; });
  return it->second.result;
}

bool Service::cancel(JobId id) {
  Impl& I = *impl_;
  std::lock_guard lock(I.mu);
  const auto it = I.jobs.find(id);
  if (it == I.jobs.end() || it->second.terminal) return false;
  Impl::JobState& s = it->second;
  if (s.result.status == JobStatus::kQueued) {
    const int prio = static_cast<int>(s.job.priority);
    I.queue.erase(Impl::QueueKey{-prio, id});
    s.result.error = "cancelled while queued";
    I.finalize_locked(s, JobStatus::kCancelled);
    return true;
  }
  // Running: fire the job's external token; its governor cancels the solve
  // at the next poll site and the executor records kCancelled.
  s.cancel_source.request_cancel();
  return true;
}

ServiceStats Service::stats() const {
  Impl& I = *impl_;
  ServiceStats out;
  {
    std::lock_guard lock(I.mu);
    out.submitted = I.n_submitted;
    out.admitted = I.n_admitted;
    out.rejected = I.n_rejected;
    out.completed = I.n_completed;
    out.failed = I.n_failed;
    out.cancelled = I.n_cancelled;
    out.cache_hits = I.n_cache_hits;
    out.cache_misses = I.n_cache_misses;
    out.queued = I.queue.size();
    out.running = I.running;
  }
  out.cache_bytes = I.cache.bytes();
  out.cache_entries = I.cache.entries();
  out.cache_evictions = static_cast<std::uint64_t>(
      obs::metrics().counter("cache.evictions").value());
  return out;
}

void Service::shutdown(bool drain) {
  Impl& I = *impl_;
  {
    std::unique_lock lock(I.mu);
    if (I.stopped) return;
    I.stopping = true;
    if (!drain) {
      // Cancel everything still queued; running jobs get their token fired
      // and unwind at the next poll site.
      while (!I.queue.empty()) {
        const JobId id = I.queue.begin()->second;
        I.queue.erase(I.queue.begin());
        Impl::JobState& s = I.jobs.at(id);
        s.result.error = "service shutdown";
        I.finalize_locked(s, JobStatus::kCancelled);
      }
      for (auto& [id, s] : I.jobs) {
        if (!s.terminal && s.result.status == JobStatus::kRunning) {
          s.cancel_source.request_cancel();
        }
      }
    }
    I.stopped = true;
  }
  I.work_cv.notify_all();
  for (std::thread& t : I.executors) {
    if (t.joinable()) t.join();
  }
}

}  // namespace fastsc
