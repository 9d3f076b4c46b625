// Public API: the spectral clustering pipeline (the paper's contribution).
//
// Two entry points mirror the paper's two input modes:
//  * spectral_cluster_points — data points in R^d plus an epsilon edge list
//    (the DTI mode): Step 1 builds the similarity matrix, then Steps 2-4;
//  * spectral_cluster_graph — a graph given directly as a sparse matrix
//    (the FB/DBLP/Syn200 mode): the pipeline starts at Step 2.
//
// Three backends run the same mathematical pipeline with different
// execution strategies, enabling the paper's CUDA / Matlab / Python
// comparisons from one code path:
//  * kDevice     — the paper's hybrid scheme: device kernels for similarity,
//                  device csrmv inside the reverse-communication eigensolver
//                  (vectors staged over the modeled PCIe link), device
//                  BLAS-formulated k-means;
//  * kMatlabLike — serial loop similarity, CPU SpMV + blocked dense tier,
//                  Lloyd k-means with random seeding;
//  * kPythonLike — serial loop similarity, CPU SpMV + naive dense tier,
//                  Lloyd k-means with k-means++ seeding.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/stage_clock.h"
#include "device/device.h"
#include "fault/fault.h"
#include "graph/grid_index.h"
#include "graph/similarity.h"
#include "kmeans/kmeans.h"
#include "lanczos/irlm.h"
#include "sparse/coo.h"

namespace fastsc::core {

enum class Backend { kDevice, kMatlabLike, kPythonLike };

[[nodiscard]] std::string backend_name(Backend b);

/// Canonical stage names used in StageClock and reports.
inline constexpr const char* kStageSimilarity = "similarity";
inline constexpr const char* kStageEigensolver = "eigensolver";
inline constexpr const char* kStageKmeans = "kmeans";

/// Graceful-degradation policy for the device backend.  When a device stage
/// throws a DeviceError the pipeline walks a ladder instead of aborting:
/// device -> rebuilt device state (integrity failures only) -> host
/// backend; the eigensolver can additionally
/// resume a kFailed solve from its last IRLM checkpoint with an extended
/// restart budget.  Every rung taken is recorded in
/// SpectralResult::degradation and published as degrade.* counters.
struct DegradationPolicy {
  bool enabled = true;
  /// Retry a device stage that failed an integrity check on the device
  /// first: the eigensolver and k-means rebuild their device state from the
  /// host copy.
  bool allow_sync_fallback = true;
  /// Last rung: redo the stage on the host (kMatlabLike kernels).
  bool allow_host_fallback = true;
  /// Resume a kFailed eigensolve from its last checkpoint with an extended
  /// restart budget before falling back (LanczosConfig::capture_checkpoints).
  bool resume_failed_solve = false;
  index_t max_solver_resumes = 1;
};

/// One degradation decision: which stage fell back, to what, and why.
struct DegradationEvent {
  std::string stage;   ///< kStage* name
  std::string action;  ///< e.g. "device-sync", "host-eigensolver"
  std::string reason;  ///< the triggering error's what()
};

struct DegradationReport {
  bool degraded = false;
  std::vector<DegradationEvent> events;
};

/// Silent-data-corruption defense knobs (DESIGN.md §14).  Detection is
/// layered: Huang–Abraham column-sum checksums on the eigensolver SpMV
/// waves and the k-means distance GEMM, cheap invariant sentinels in the
/// RCI loop (basis orthogonality drift, Rayleigh-quotient and norm bounds
/// of the normalized operator), and CRC32C frames on staged transfer
/// buffers (at-rest frames on checkpoints and cache entries are always on —
/// they are part of the storage format).  A detection escalates
/// recompute-block -> fp64 re-solve rung -> device-sync -> host through the
/// existing degradation ladder via DataIntegrityError.
struct SdcPolicy {
  /// Master switch for the in-run checks: the SpMV wave checksum, the RCI
  /// sentinels, the staged-transfer CRC and (with abft_kmeans) the k-means
  /// checksum.
  bool enabled = true;
  bool abft_kmeans = true;   ///< checksum-verify the k-means distance GEMM
};

/// What the SDC layer saw during one run (mirrored into the sdc.* counter
/// family and the run report's integrity section).
struct IntegrityReport {
  std::uint64_t checks = 0;      ///< checksum/sentinel verifications run
  std::uint64_t detected = 0;    ///< mismatches found
  std::uint64_t recomputed = 0;  ///< recovered by an in-place block recompute
  /// One "site: detail" line per detection, in order.
  std::vector<std::string> events;
};

struct SpectralConfig {
  /// Number of clusters (the paper's k; also the eigenpair count).
  index_t num_clusters = 2;
  Backend backend = Backend::kDevice;

  graph::SimilarityParams similarity{};

  /// Eigensolver knobs (paper §IV.B).  ncv = 0 selects the ARPACK-style
  /// default m = max(2k+1, 20) capped at n.
  index_t ncv = 0;
  real eig_tol = 1e-8;
  index_t max_restarts = 500;
  /// Largest-algebraic of D^-1 W (the paper's numerically stable choice).
  lanczos::EigWhich which = lanczos::EigWhich::kLargestAlgebraic;
  /// No effect: the k-means centroid-tile prefetch it switched is gone, and
  /// it is not part of the config fingerprint.  Kept only so existing
  /// callers compile.
  bool async_pipeline = true;

  /// Number of simulated devices for Steps 2-4 (device backend, points and
  /// graph mode).  Every count runs the same pipeline over a DeviceGroup
  /// (device/device_group.h) whose device 0 is the caller's context, which
  /// also runs Algorithm 1 in points mode; > 1 adds the context's peers
  /// 1..num_devices-1 (made on first use, kept for its lifetime, configured
  /// like it and running on its pool), row-shards the operator
  /// (halo-exchanged SpMV waves, metered CGS2 allreduce) and the k-means
  /// points.  Eigenpairs, embedding and labels are byte-identical for every
  /// value of this knob (DESIGN.md §12).  On a permanent device error the
  /// device rungs cannot absorb, a run over more than one device reruns on
  /// the caller's context alone when degradation.enabled (action
  /// "single-device").
  index_t num_devices = 1;

  /// Out-of-core similarity construction (device backend, points mode):
  /// 0 builds the whole edge list on the device at once (Algorithm 1);
  /// > 0 streams the edge list through the device in chunks of this many
  /// edges, for edge lists beyond the device-memory budget.
  index_t similarity_chunk_edges = 0;

  /// k-means knobs (paper §IV.C).
  index_t kmeans_max_iters = 100;
  kmeans::Seeding seeding = kmeans::Seeding::kKmeansPlusPlus;

  /// Normalize each embedding row to unit length before k-means — the
  /// Ng-Jordan-Weiss variant of Step 4 (the paper follows Shi-Malik and
  /// clusters the raw rows; bench_ablation_embedding_norm compares both).
  bool row_normalize_embedding = false;

  /// Enable the obs trace recorder for the duration of this run (restores
  /// the previous state afterwards).  Stage spans, per-wave SpMV spans,
  /// device virtual-timeline events, and solver counters are recorded; dump
  /// with obs::trace().write_json_file() (benches: --trace-out).  Tracing
  /// can also be forced globally with FASTSC_TRACE=1.
  bool trace = false;

  /// Record per-sweep k-means inertia into kmeans_inertia_history.  Implied
  /// by tracing.
  bool record_kmeans_inertia = false;

  /// How the device backend degrades on DeviceErrors instead of aborting.
  DegradationPolicy degradation{};

  /// Silent-data-corruption detection (ABFT checksums, sentinels, transfer
  /// CRC) and its recovery escalation.  Default-on: the checks are O(n) per
  /// wave against O(nnz) kernels.
  SdcPolicy sdc{};

  /// Deterministic fault plan armed (via fault::ArmScope) for the duration
  /// of the run; empty = no injection.  Also settable process-wide through
  /// FASTSC_FAULTS.
  fault::FaultPlan faults{};

  /// Wall-clock deadline for the whole call (budget.wall_ms, 0 = none),
  /// checked at every poll site.  With budget.anytime (default), expiry
  /// mid-eigensolve snapshots the best partial Ritz pairs and still clusters
  /// (SpectralResult::budget.anytime); without it, expiry throws
  /// cancel::CancelledError.
  cancel::RunBudget budget{};

  /// External cancellation: pass CancelSource::token() and call
  /// request_cancel() from any thread; the run unwinds with a site-annotated
  /// cancel::CancelledError at its next poll point.
  cancel::CancelToken cancel_token{};

  /// Validate user-facing inputs (finiteness of points/edge weights/graph
  /// values and of the embedding handed to k-means) at stage boundaries.
  bool validate_inputs = true;

  /// Warm-start the device eigensolver from a restart-boundary checkpoint of
  /// a *nearby* matrix (the service's delta-edge re-solve path; see
  /// SymLanczos::restore_warm).  Ignored — with a WARN — when the checkpoint
  /// does not match the solver configuration this run derives (n, nev, ncv,
  /// which) or is not a restart boundary.  SpectralResult::warm_started
  /// records whether the warm path was actually taken.
  std::shared_ptr<const lanczos::LanczosCheckpoint> warm_start{};

  /// Export the eigensolver's last restart-boundary checkpoint into
  /// SpectralResult::checkpoint (device backend), so a later run on a
  /// perturbed graph can warm-start from it.
  bool capture_checkpoint = false;

  std::uint64_t seed = 42;
};

struct SpectralResult {
  std::vector<index_t> labels;       ///< cluster per vertex
  std::vector<real> eigenvalues;     ///< k best eigenvalues of D^-1 W
  std::vector<real> embedding;       ///< n x k spectral embedding (rows)
  index_t n = 0;
  index_t k = 0;

  bool eig_converged = false;
  bool kmeans_converged = false;
  index_t kmeans_iterations = 0;

  /// Per-stage wall times (kStage* names).
  StageClock clock;
  /// Device counter delta over this run (kDevice backend; zeros otherwise).
  device::DeviceCounters device_counters;
  lanczos::LanczosStats eig_stats;
  /// Wall time spent in SpMV callbacks during the eigensolver stage.
  double spmv_seconds = 0;
  /// Objective after each Lloyd sweep (empty unless
  /// SpectralConfig::record_kmeans_inertia or tracing was enabled).
  std::vector<real> kmeans_inertia_history;

  /// Fallbacks and resumes taken during this run (device backend).
  DegradationReport degradation;

  /// SDC checks run / detections / block recomputes during this run.
  IntegrityReport integrity;

  /// Deadline accounting: limit vs. spend, why and where the run was cut,
  /// and whether the result is an anytime (partial) answer.
  cancel::BudgetReport budget;

  /// Last restart-boundary eigensolver checkpoint (only when
  /// SpectralConfig::capture_checkpoint; shared so a result cache can hold
  /// it without copying the Krylov basis).
  std::shared_ptr<const lanczos::LanczosCheckpoint> checkpoint{};
  /// True when the eigensolve warm-started from SpectralConfig::warm_start.
  bool warm_started = false;
};

/// Cluster n points in R^d whose candidate edges are given by `edges`
/// (unordered pairs; the pipeline symmetrizes).  Steps 1-4.
[[nodiscard]] SpectralResult spectral_cluster_points(
    const real* x, index_t n, index_t d, const graph::EdgeList& edges,
    const SpectralConfig& config,
    device::DeviceContext* ctx = nullptr);

/// Cluster the graph given by the symmetric nonnegative matrix `w`
/// (both edge directions stored).  Steps 2-4.
[[nodiscard]] SpectralResult spectral_cluster_graph(
    const sparse::Coo& w, const SpectralConfig& config,
    device::DeviceContext* ctx = nullptr);

}  // namespace fastsc::core
