// Parallel k-means on the (simulated) device — the paper's Algorithm 4 —
// over the row-partitioned multi-GPU layout of Sgherzi et al.
// (arXiv:2201.07498).
//
// One blocked Lloyd sweep serves every device count: a single device is a
// DeviceGroup of one.  Each device owns a contiguous block of points (rows
// of the embedding) and per sweep
//
//   * receives the centroids (host -> root over PCIe, root -> peers over
//     the D2D link, "d2d.centroid_bcast");
//   * assembles its distance block following Eq. 11-16 — never point by
//     point: S_ij = ||v_i||^2 + ||c_j||^2 - 2 <v_i, c_j> from two squared-
//     norm vectors plus one level-3 BLAS product (dblas::gemm_nt), the
//     paper's main source of k-means speedup — and verifies it with an ABFT
//     column-sum checksum (DESIGN.md §14);
//   * labels each point with the argmin of its row of S;
//   * reduces fixed 256-point blocks to partial (sum, count, changed,
//     inertia) records, which the root folds in ascending global block
//     order ("d2d.centroid_reduce") into the centroid update.
//
// Every per-point value depends only on that point's row, and the fold order
// is fixed by the block grid, so labels are bitwise identical for every
// device count and worker count (DESIGN.md §12).  Seeding (k-means++,
// Algorithm 5) and the farthest-point repair of empty clusters run on the
// host over the full embedding.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "device/device.h"
#include "device/device_group.h"

namespace fastsc::kmeans {

enum class Seeding {
  kRandom,          ///< uniform sample of k points (Matlab-style default)
  kKmeansPlusPlus,  ///< D^2-weighted seeding (Algorithm 5)
};

/// Points per partial-reduction block.  Row cuts of a device group must be
/// multiples of it so every block lies whole on one device.
inline constexpr index_t kBlockRows = 256;

struct KmeansConfig {
  index_t k = 2;
  index_t max_iters = 300;
  Seeding seeding = Seeding::kKmeansPlusPlus;
  /// Independent runs with different seeds; the best objective wins
  /// (sklearn's n_init; Matlab's "replicates").
  index_t restarts = 1;
  /// No effect: the centroid-tile prefetch it switched is gone.  Kept only
  /// so existing callers compile.
  bool async_pipeline = false;
  std::uint64_t seed = 42;
  /// Record the clustering objective after every label update into
  /// KmeansResult::inertia_history.  Per-sweep telemetry is also recorded
  /// whenever tracing is enabled.
  bool record_inertia = false;
  /// ABFT checksum on every device's distance block (DESIGN.md §14): the
  /// identity sum(S) = k*sum(vnorm) + n*sum(cnorm) - 2*<colsum(V), colsum(C)>
  /// is verified after every distance assembly with all terms reduced from
  /// the same device-resident arrays.  A mismatch recomputes the block once,
  /// then raises DataIntegrityError into the k-means ladder.
  bool abft = true;
};

struct KmeansResult {
  std::vector<index_t> labels;    ///< length n
  std::vector<real> centroids;    ///< k x d row-major
  index_t iterations = 0;
  real objective = 0;             ///< sum of squared point-centroid distances
  bool converged = false;         ///< true if labels stabilized before max_iters
  /// Objective after each label update (empty unless record_inertia or
  /// tracing was on); for restarts > 1, the winning run's history.
  std::vector<real> inertia_history;
  /// Points that switched cluster in each sweep (same gating/length).
  std::vector<index_t> changed_history;
  /// Distance-block checksums verified, mismatches found, and mismatches
  /// cleared by an in-place recompute, summed over devices and restarts.
  std::uint64_t abft_checks = 0;
  std::uint64_t abft_detected = 0;
  std::uint64_t abft_recomputed = 0;
};

/// Device k-means over `group`: device i clusters rows [cuts[i], cuts[i+1])
/// of the host-resident n x d row-major data `v` (the rows of the
/// eigenvector matrix in the pipeline).  `cuts` holds group.size() + 1
/// ascending entries from 0 to n; interior cuts are multiples of
/// kBlockRows.  Each device's block is transferred to it, clustered, and
/// the labels transferred back (Algorithm 4 steps 1 and 4).
[[nodiscard]] KmeansResult kmeans_group(device::DeviceGroup& group,
                                        std::span<const index_t> cuts,
                                        const real* v, index_t n, index_t d,
                                        const KmeansConfig& config);

/// Device k-means on one context: kmeans_group over a group of one that
/// borrows `ctx`.
[[nodiscard]] KmeansResult kmeans_device(device::DeviceContext& ctx,
                                         const real* v, index_t n, index_t d,
                                         const KmeansConfig& config);

}  // namespace fastsc::kmeans
