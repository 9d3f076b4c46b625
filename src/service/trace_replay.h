// Job-trace replay for the clustering service.
//
// A trace file is a line-oriented script of service requests (see
// examples/service_trace.txt):
//
//   # op dataset n    k  seed priority deadline_ms delta_frac
//   solve   fb   600  5  42   1        0           0
//   solve   fb   600  5  42   1        0           0      <- cache hit
//   update  fb   600  5  42   2        0           0.01   <- warm re-solve
//
// `solve` generates the dataset's graph (fb-like or dblp-like planted
// communities, keyed by the dataset name prefix) and submits it.  `update`
// perturbs `delta_frac` of the dataset's current edges (weight x1.5,
// symmetric, deterministic) and submits the result with Job::warm_hint set
// to the pre-update graph fingerprint, so the service warm-starts from the
// cached Krylov basis.  An update is submitted once the dataset's previous
// job has finished: the service takes warm donors from the hinted cache
// entry only, so that entry must exist.  Updates must repeat the solve's k
// and seed — the config fingerprint has to match for the cache to chain
// them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/spectral.h"
#include "fastsc/service.h"
#include "sparse/coo.h"

namespace fastsc::service {

/// One parsed trace line.
struct TraceOp {
  std::string op;       ///< "solve" or "update"
  std::string dataset;  ///< graph key; prefix picks the generator family
  index_t n = 0;
  index_t k = 2;
  std::uint64_t seed = 42;
  int priority = 1;          ///< 0 = low, 1 = normal, 2 = high
  double deadline_ms = 0;    ///< 0 = no per-job deadline
  double delta_frac = 0;     ///< update only: fraction of edges perturbed
};

/// Parse a trace file.  Blank lines and `#` comments are skipped; malformed
/// lines throw std::invalid_argument with the line number.
[[nodiscard]] std::vector<TraceOp> parse_trace_file(const std::string& path);

/// Parse trace text (same grammar as the file form).
[[nodiscard]] std::vector<TraceOp> parse_trace_text(const std::string& text);

/// Deterministically scale ~frac of the graph's undirected edges by 1.5,
/// symmetrically (both stored directions of an edge get the same factor).
/// Selection hashes (seed, min(i,j), max(i,j)) so it is order-independent.
void perturb_edges(sparse::Coo& w, double frac, std::uint64_t seed);

/// A submitted trace op with its final result (filled by wait_all()).
struct ReplayedJob {
  TraceOp op;
  JobId id = 0;
  JobStatus submit_status = JobStatus::kQueued;
  JobResult result;
};

/// Replays trace ops against a Service, holding the evolving graph per
/// dataset so `update` lines chain (each perturbs the previous state).
class TraceReplayer {
 public:
  /// `base` supplies everything a trace line does not (backend, tolerances,
  /// ...); num_clusters and seed are overwritten per op.
  TraceReplayer(Service& service, core::SpectralConfig base);

  /// Build the op's graph and submit it.  The submitted job (without its
  /// result) is appended to jobs().
  Service::Submitted submit(const TraceOp& op);

  /// Wait for every submitted job and fill in the results; returns jobs().
  const std::vector<ReplayedJob>& wait_all();

  [[nodiscard]] const std::vector<ReplayedJob>& jobs() const { return jobs_; }

  /// Current (post-update) graph for a dataset, or nullptr if never solved.
  [[nodiscard]] const sparse::Coo* current_graph(
      const std::string& dataset) const;

  /// The solver config an op runs under (for cold-solve comparisons).
  [[nodiscard]] core::SpectralConfig config_for(const TraceOp& op) const;

 private:
  struct DatasetState {
    sparse::Coo graph;
    std::uint64_t fingerprint = 0;  ///< graph_fingerprint of `graph`
    std::uint64_t updates = 0;      ///< perturbation counter (seeds deltas)
    JobId last_job = 0;             ///< the job an update warm-starts from
  };

  Service& service_;
  core::SpectralConfig base_;
  std::map<std::string, DatasetState> datasets_;
  std::vector<ReplayedJob> jobs_;
};

}  // namespace fastsc::service
