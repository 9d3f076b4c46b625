// Public service API: jobs and their results.
//
// The headers under include/fastsc/ are the stable surface of the serving
// layer (lib/CLI split): embedders include <fastsc/service.h> and never the
// internal src/ headers except through the pipeline types they already
// depend on (SpectralConfig, sparse::Coo, SpectralResult).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spectral.h"
#include "obs/attribution.h"
#include "sparse/coo.h"

namespace fastsc {

using JobId = std::uint64_t;

/// Queue priority; higher priorities dispatch first, FIFO within a class.
enum class JobPriority { kLow = 0, kNormal = 1, kHigh = 2 };

/// Lifecycle of a submitted job.
enum class JobStatus {
  kQueued,      ///< admitted, waiting for an executor
  kRunning,     ///< an executor is solving it
  kCompleted,   ///< result available
  kFailed,      ///< the solve threw; JobResult::error has the message
  kCancelled,   ///< cancelled (explicitly or by its deadline)
  kOverloaded,  ///< rejected at admission (queue depth or arena quota)
};

[[nodiscard]] const char* job_status_name(JobStatus s);

/// One clustering request: a graph (symmetric nonnegative COO, both edge
/// directions stored) plus the pipeline configuration to solve it with.
struct Job {
  sparse::Coo graph;
  core::SpectralConfig config{};
  JobPriority priority = JobPriority::kNormal;

  /// Per-job deadline in wall milliseconds; 0 = no deadline.  Folded into
  /// the job's RunBudget (config.budget.wall_ms, when that is unset) and
  /// checked at the poll sites of the job's own governor, independently of
  /// every other job in flight.  config.budget.anytime picks between a
  /// partial completed result (never cached) and kCancelled.
  double deadline_ms = 0;

  /// Warm-start hint: the graph fingerprint of a previously solved nearby
  /// graph (e.g. this graph before a delta-edge update).  When the cache
  /// still holds that entry's eigensolver checkpoint, the solve restores
  /// its Krylov basis instead of cold-starting.  0 = no hint, or a missing
  /// or corrupt hinted entry: the job cold-starts (the service never picks
  /// a donor by config + dimension alone).
  std::uint64_t warm_hint = 0;

  /// Free-form tag echoed into logs and trace spans.
  std::string tag;
};

/// Everything the service reports back for one job.
struct JobResult {
  JobId id = 0;
  JobStatus status = JobStatus::kQueued;

  /// The full pipeline result (labels, eigenvalues, stats); meaningful when
  /// status == kCompleted.  On a cache hit the labels/eigenvalues are the
  /// cached ones and the solve-time stats are zero.
  core::SpectralResult spectral{};

  bool cache_hit = false;      ///< served from the result cache
  bool warm_started = false;   ///< eigensolver warm-started from a donor

  std::uint64_t graph_fingerprint = 0;
  std::uint64_t config_fingerprint = 0;

  double queue_ms = 0;  ///< admission -> dispatch
  double solve_ms = 0;  ///< dispatch -> completion (0 on a cache hit)

  /// Per-site cost attribution of exactly this job's device work (kernel
  /// launches, transfers, modeled seconds, roofline utilization), collected
  /// from the job-local registry the executor binds around the solve.
  /// Empty on cache hits and rejections.
  std::vector<obs::SiteReport> attribution;

  /// Artifact paths when ServiceConfig::job_artifacts_dir is set ("" when
  /// not written): a Perfetto trace of this job and its attribution table.
  std::string trace_path;
  std::string attribution_path;

  /// what() of the failure when status == kFailed / kCancelled / rejection
  /// detail when status == kOverloaded.
  std::string error;
};

}  // namespace fastsc
