// Similarity-graph construction (paper §IV.A, Algorithm 1).
//
// Three graph structures from von Luxburg's tutorial, all supported:
// epsilon-distance, k-nearest-neighbor, and lambda-threshold.  The device
// path implements Algorithm 1 verbatim: transfer X and the edge list E,
// run the compute_average / update_data / compute_similarity kernels, and
// assemble a COO similarity matrix on the device.
#pragma once

#include "device/device.h"
#include "graph/grid_index.h"
#include "graph/similarity.h"
#include "sparse/coo.h"
#include "sparse/spmv.h"

namespace fastsc::graph {

/// Build the epsilon-distance edge list for points in R^3 (one entry per
/// unordered pair within eps).  This generates the E input the paper assumes
/// is given for the DTI dataset.
[[nodiscard]] EdgeList build_epsilon_edges_3d(const real* positions, index_t n,
                                              real eps);

/// Mirror an unordered edge list into a directed one (u->v and v->u), which
/// is the entry set of the symmetric similarity matrix.
[[nodiscard]] EdgeList symmetrized(const EdgeList& edges);

/// Host, vectorized similarity construction: precompute per-point statistics
/// once, then one dot product per edge.  `edges` must already be symmetrized
/// if a symmetric W is desired.  Entries with non-positive similarity are
/// clamped to a small positive floor when `clamp_nonpositive` is set, so W
/// stays a valid weight matrix (degrees > 0).
[[nodiscard]] sparse::Coo build_similarity_host(const real* x, index_t n,
                                                index_t d,
                                                const EdgeList& edges,
                                                const SimilarityParams& params,
                                                bool clamp_nonpositive = true);

/// Device implementation of Algorithm 1.  Transfers X and E, runs the three
/// kernels, and returns the COO similarity matrix resident on the device
/// (row-sorted iff the edge list was row-sorted).
[[nodiscard]] sparse::DeviceCoo build_similarity_device(
    device::DeviceContext& ctx, const real* x, index_t n, index_t d,
    const EdgeList& edges, const SimilarityParams& params,
    bool clamp_nonpositive = true);

/// Fused Algorithm 1 + degree pass (mixed-precision ladder, DESIGN.md §13):
/// builds the device COO like build_similarity_device and computes the
/// weighted degrees d_i = sum_j W_ij in the same build stage, without first
/// materializing a CSR — a span-partial edge sweep (kFusedDegreeSpans fixed
/// contiguous spans, each folded in ascending span order) replaces the
/// degree pass of Algorithm 2.  The span count is fixed so the fold order —
/// and hence every degree bit — is independent of the worker count and of
/// the device count (every device count consumes the same host vector).
/// Note the fold order differs from CSR entry order, so fused-build degrees
/// are numerically (not bitwise) equal to the unfused path's.
///
/// `value_precision` below fp64 quantizes each similarity on store (RNE
/// through the narrow width; degrees then accumulate the *quantized*
/// values in fp64, keeping d_i an exact row sum of the operator actually
/// used).  `degrees` is filled with the host vector (length n).
[[nodiscard]] sparse::DeviceCoo build_similarity_device_fused_degrees(
    device::DeviceContext& ctx, const real* x, index_t n, index_t d,
    const EdgeList& edges, const SimilarityParams& params,
    std::vector<real>& degrees, Precision value_precision = Precision::kFp64,
    bool clamp_nonpositive = true);

/// Out-of-core variant of Algorithm 1 for edge lists that exceed the device
/// memory budget (the paper's K20c has 5 GB; the DTI edge list alone is
/// ~100 MB and the nnz-length value vector rides along).  X and the
/// per-point statistics stay resident; the edge list streams through the
/// device in chunks of `chunk_edges`, and the finished COO accumulates on
/// the host.  Results are bit-identical to build_similarity_device.
[[nodiscard]] sparse::Coo build_similarity_device_chunked(
    device::DeviceContext& ctx, const real* x, index_t n, index_t d,
    const EdgeList& edges, const SimilarityParams& params,
    index_t chunk_edges, bool clamp_nonpositive = true);

/// k-nearest-neighbor graph (union rule: i~j if i in knn(j) OR j in knn(i)),
/// brute-force O(n^2 d) with a bounded per-row heap; returns symmetric COO.
/// `k_neighbors` is unrelated to the cluster count (paper's note).
[[nodiscard]] sparse::Coo build_knn_graph(const real* x, index_t n, index_t d,
                                          index_t k_neighbors,
                                          const SimilarityParams& params);

/// lambda-threshold graph: connect pairs with similarity > lambda.
/// O(n^2 d); intended for small/medium n.
[[nodiscard]] sparse::Coo build_threshold_graph(const real* x, index_t n,
                                                index_t d, real lambda,
                                                const SimilarityParams& params);

/// Remove isolated (zero-degree) vertices: returns the induced submatrix and
/// fills `old_of_new` with the surviving original indices.
[[nodiscard]] sparse::Coo remove_isolated(const sparse::Coo& w,
                                          std::vector<index_t>& old_of_new);

}  // namespace fastsc::graph
