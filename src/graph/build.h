// Similarity-graph construction (paper §IV.A, Algorithm 1).
//
// Three graph structures from von Luxburg's tutorial, all supported:
// epsilon-distance, k-nearest-neighbor, and lambda-threshold.  The device
// path implements Algorithm 1 verbatim: transfer X and the edge list E,
// run the compute_average / update_data / compute_similarity kernels, and
// assemble a COO similarity matrix on the device.
#pragma once

#include <vector>

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
/// kernels, and returns the COO similarity matrix resident on the device,
/// in the edge list's entry order.  Non-positive similarities are clamped
/// to the host builder's floor.
[[nodiscard]] sparse::DeviceCoo build_similarity_device(
    device::DeviceContext& ctx, const real* x, index_t n, index_t d,
    const EdgeList& edges, const SimilarityParams& params);

/// Out-of-core variant of Algorithm 1 for edge lists that exceed the device
/// memory budget (the paper's K20c has 5 GB; the DTI edge list alone is
/// ~100 MB and the nnz-length value vector rides along).  X and the
/// per-point statistics stay resident; the edge list streams through the
/// device in chunks of `chunk_edges` through the same kernel, and the
/// finished COO accumulates on the host.  Results are bit-identical to
/// build_similarity_device.
[[nodiscard]] sparse::Coo build_similarity_device_chunked(
    device::DeviceContext& ctx, const real* x, index_t n, index_t d,
    const EdgeList& edges, const SimilarityParams& params,
    index_t chunk_edges);

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
