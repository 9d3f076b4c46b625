#include "graph/build.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/cancel.h"
#include "common/error.h"
#include "common/par.h"
#include "device/algorithms.h"
#include "sparse/convert.h"

namespace fastsc::graph {

namespace {
/// Floor for clamped non-positive similarities; keeps W nonnegative with
/// strictly positive degrees so D^-1 exists (paper §IV.B assumes D_ii > 0).
constexpr real kSimilarityFloor = 1e-8;

real clamp_sim(real v) { return v > kSimilarityFloor ? v : kSimilarityFloor; }
}  // namespace

EdgeList build_epsilon_edges_3d(const real* positions, index_t n, real eps) {
  FASTSC_CHECK(eps > 0, "epsilon must be positive");
  GridIndex3D index(positions, n, eps);
  return index.epsilon_pairs(eps);
}

EdgeList symmetrized(const EdgeList& edges) {
  EdgeList out;
  const index_t m = edges.size();
  out.u.reserve(static_cast<usize>(2 * m));
  out.v.reserve(static_cast<usize>(2 * m));
  for (index_t e = 0; e < m; ++e) {
    out.push(edges.u[static_cast<usize>(e)], edges.v[static_cast<usize>(e)]);
    out.push(edges.v[static_cast<usize>(e)], edges.u[static_cast<usize>(e)]);
  }
  return out;
}

sparse::Coo build_similarity_host(const real* x, index_t n, index_t d,
                                  const EdgeList& edges,
                                  const SimilarityParams& params,
                                  bool clamp_nonpositive) {
  const index_t nnz = edges.size();
  // Precompute the per-point statistics once (the "vectorized" fast path).
  const bool center = params.measure == SimilarityMeasure::kCrossCorrelation;
  std::vector<real> centered;
  const real* rows = x;
  if (center) {
    centered.assign(x, x + static_cast<usize>(n) * static_cast<usize>(d));
    for (index_t i = 0; i < n; ++i) {
      real* row = centered.data() + i * d;
      real mean = 0;
      for (index_t l = 0; l < d; ++l) mean += row[l];
      mean /= static_cast<real>(d);
      for (index_t l = 0; l < d; ++l) row[l] -= mean;
    }
    rows = centered.data();
  }
  std::vector<real> norms(static_cast<usize>(n));
  for (index_t i = 0; i < n; ++i) {
    const real* row = rows + i * d;
    real acc = 0;
    for (index_t l = 0; l < d; ++l) acc += row[l] * row[l];
    norms[static_cast<usize>(i)] = std::sqrt(acc);
  }
  sparse::Coo coo(n, n);
  coo.row_idx = edges.u;
  coo.col_idx = edges.v;
  coo.values.resize(static_cast<usize>(nnz));
  for (index_t e = 0; e < nnz; ++e) {
    const index_t i = edges.u[static_cast<usize>(e)];
    const index_t j = edges.v[static_cast<usize>(e)];
    const real s = similarity_precomputed(
        rows + i * d, rows + j * d, norms[static_cast<usize>(i)],
        norms[static_cast<usize>(j)], d, params);
    coo.values[static_cast<usize>(e)] = clamp_nonpositive ? clamp_sim(s) : s;
  }
  return coo;
}

namespace {

/// Algorithm 1's resident state: X centered in place and each row's norm.
struct DevicePoints {
  device::DeviceBuffer<real> x;
  device::DeviceBuffer<real> norm;
};

/// Algorithm 1, steps 1-5: transfer X, then kernel compute_average (thread
/// i averages row i; zeros unless the measure centers) and kernel
/// update_data (thread i centers row i and takes its norm).
DevicePoints upload_points(device::DeviceContext& ctx, const real* x,
                           index_t n, index_t d,
                           const SimilarityParams& params) {
  DevicePoints pts;
  pts.x = device::DeviceBuffer<real>(
      ctx, std::span<const real>(
               x, static_cast<usize>(n) * static_cast<usize>(d)));
  device::DeviceBuffer<real> dev_avg(ctx, static_cast<usize>(n));
  pts.norm = device::DeviceBuffer<real>(ctx, static_cast<usize>(n));
  real* xp = pts.x.data();
  real* avg = dev_avg.data();
  real* nrm = pts.norm.data();
  if (params.measure == SimilarityMeasure::kCrossCorrelation) {
    device::launch(ctx, n, [=](index_t i) {
      const real* row = xp + i * d;
      real mean = 0;
      for (index_t l = 0; l < d; ++l) mean += row[l];
      avg[i] = mean / static_cast<real>(d);
    });
  } else {
    device::fill(ctx, avg, n, real{0});
  }
  device::launch(ctx, n, [=](index_t i) {
    real* row = xp + i * d;
    const real mean = avg[i];
    real acc = 0;
    for (index_t l = 0; l < d; ++l) {
      row[l] -= mean;
      acc += row[l] * row[l];
    }
    nrm[i] = std::sqrt(acc);
  });
  return pts;
}

/// Algorithm 1, step 6: kernel compute_similarity — thread e turns edge
/// (u[e], v[e]) into val[e], clamped to the similarity floor.
void compute_similarity(device::DeviceContext& ctx, const DevicePoints& pts,
                        index_t d, const SimilarityParams& params,
                        const index_t* up, const index_t* vp, real* val,
                        index_t count) {
  const real* xp = pts.x.data();
  const real* nrm = pts.norm.data();
  const SimilarityParams p = params;
  const auto m = static_cast<double>(count);
  const double rbytes = m * (2.0 * d * sizeof(real) + 2.0 * sizeof(index_t));
  const device::LaunchConfig cfg = device::tagged(
      "graph.similarity", 3.0 * m * d, rbytes, m * sizeof(real));
  device::launch(ctx, count, [=](index_t e) {
    const index_t i = up[e];
    const index_t j = vp[e];
    const real s = similarity_precomputed(xp + i * d, xp + j * d, nrm[i],
                                          nrm[j], d, p);
    val[e] = clamp_sim(s);
  }, cfg);
}

}  // namespace

sparse::DeviceCoo build_similarity_device(device::DeviceContext& ctx,
                                          const real* x, index_t n, index_t d,
                                          const EdgeList& edges,
                                          const SimilarityParams& params) {
  const index_t nnz = edges.size();
  obs::AttrSiteScope attr_site("graph.similarity");
  const DevicePoints pts = upload_points(ctx, x, n, d, params);
  // Transfer the edge list E; with the nnz-length value vector it forms
  // the COO matrix on the device.
  sparse::DeviceCoo coo;
  coo.rows = n;
  coo.cols = n;
  coo.row_idx = device::DeviceBuffer<index_t>(
      ctx, std::span<const index_t>(edges.u));
  coo.col_idx = device::DeviceBuffer<index_t>(
      ctx, std::span<const index_t>(edges.v));
  coo.values = device::DeviceBuffer<real>(ctx, static_cast<usize>(nnz));
  compute_similarity(ctx, pts, d, params, coo.row_idx.data(),
                     coo.col_idx.data(), coo.values.data(), nnz);
  return coo;
}

sparse::Coo build_similarity_device_chunked(device::DeviceContext& ctx,
                                            const real* x, index_t n,
                                            index_t d, const EdgeList& edges,
                                            const SimilarityParams& params,
                                            index_t chunk_edges) {
  FASTSC_CHECK(chunk_edges >= 1, "chunk size must be positive");
  const index_t nnz = edges.size();
  obs::AttrSiteScope attr_site("graph.similarity");
  const DevicePoints pts = upload_points(ctx, x, n, d, params);

  // Streaming state: one chunk of (u, v, val) at a time.
  sparse::Coo out(n, n);
  out.reserve(nnz);
  std::vector<real> host_vals(static_cast<usize>(
      std::min<index_t>(chunk_edges, std::max<index_t>(nnz, 1))));
  for (index_t start = 0; start < nnz; start += chunk_edges) {
    // One poll per streamed chunk: bounded work between polls is one chunk's
    // H2D + kernel + D2H.  Similarity has no partial result, so this throws
    // on any cancellation (including an expired budget).
    cancel::poll("similarity.chunk");
    const index_t count = std::min(chunk_edges, nnz - start);
    device::DeviceBuffer<index_t> dev_u(
        ctx, std::span<const index_t>(edges.u.data() + start,
                                      static_cast<usize>(count)));
    device::DeviceBuffer<index_t> dev_v(
        ctx, std::span<const index_t>(edges.v.data() + start,
                                      static_cast<usize>(count)));
    device::DeviceBuffer<real> dev_val(ctx, static_cast<usize>(count));
    compute_similarity(ctx, pts, d, params, dev_u.data(), dev_v.data(),
                       dev_val.data(), count);
    dev_val.copy_to_host(
        std::span<real>(host_vals.data(), static_cast<usize>(count)));
    for (index_t e = 0; e < count; ++e) {
      out.push(edges.u[static_cast<usize>(start + e)],
               edges.v[static_cast<usize>(start + e)],
               host_vals[static_cast<usize>(e)]);
    }
  }
  return out;
}

sparse::Coo build_knn_graph(const real* x, index_t n, index_t d,
                            index_t k_neighbors,
                            const SimilarityParams& params) {
  FASTSC_CHECK(k_neighbors >= 1 && k_neighbors < n,
               "k_neighbors must be in [1, n)");
  // Per-row top-k by similarity, parallel across rows.
  std::vector<std::vector<std::pair<index_t, real>>> top(
      static_cast<usize>(n));
  parallel_for(index_t{0}, n, [&](index_t i) {
    // Min-heap of the best k (smallest similarity at top).
    using Entry = std::pair<real, index_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (index_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const real s = similarity_direct(x + i * d, x + j * d, d, params);
      if (static_cast<index_t>(heap.size()) < k_neighbors) {
        heap.emplace(s, j);
      } else if (s > heap.top().first) {
        heap.pop();
        heap.emplace(s, j);
      }
    }
    auto& row = top[static_cast<usize>(i)];
    row.reserve(heap.size());
    while (!heap.empty()) {
      row.emplace_back(heap.top().second, heap.top().first);
      heap.pop();
    }
  });
  // Union rule + symmetrization via sort_and_merge of max duplicates: insert
  // both directions; duplicates get merged by taking the value sum / 2 via
  // averaging identical values (similarities are equal both ways).
  sparse::Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (const auto& [j, s] : top[static_cast<usize>(i)]) {
      coo.push(i, j, s);
      coo.push(j, i, s);
    }
  }
  sparse::sort_and_merge(coo);
  // Duplicated (i,j) pairs (mutual neighbors) were summed; halve them back.
  // A pair appears either twice (mutual or one-directional insertion both
  // ways) or four times (both directions inserted by both endpoints).  The
  // easiest correct normalization: rebuild values as the direct similarity.
  parallel_for(index_t{0}, coo.nnz(), [&](index_t e) {
    const index_t i = coo.row_idx[static_cast<usize>(e)];
    const index_t j = coo.col_idx[static_cast<usize>(e)];
    coo.values[static_cast<usize>(e)] =
        similarity_direct(x + i * d, x + j * d, d, params);
  });
  return coo;
}

sparse::Coo build_threshold_graph(const real* x, index_t n, index_t d,
                                  real lambda, const SimilarityParams& params) {
  sparse::Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j) {
      const real s = similarity_direct(x + i * d, x + j * d, d, params);
      if (s > lambda) {
        coo.push(i, j, s);
        coo.push(j, i, s);
      }
    }
  }
  sparse::sort_and_merge(coo);
  return coo;
}

sparse::Coo remove_isolated(const sparse::Coo& w,
                            std::vector<index_t>& old_of_new) {
  std::vector<char> has_edge(static_cast<usize>(w.rows), 0);
  for (usize e = 0; e < w.values.size(); ++e) {
    if (w.values[e] != 0) {
      has_edge[static_cast<usize>(w.row_idx[e])] = 1;
      has_edge[static_cast<usize>(w.col_idx[e])] = 1;
    }
  }
  std::vector<index_t> new_of_old(static_cast<usize>(w.rows), -1);
  old_of_new.clear();
  for (index_t i = 0; i < w.rows; ++i) {
    if (has_edge[static_cast<usize>(i)]) {
      new_of_old[static_cast<usize>(i)] =
          static_cast<index_t>(old_of_new.size());
      old_of_new.push_back(i);
    }
  }
  sparse::Coo out(static_cast<index_t>(old_of_new.size()),
                  static_cast<index_t>(old_of_new.size()));
  out.reserve(w.nnz());
  for (usize e = 0; e < w.values.size(); ++e) {
    if (w.values[e] != 0) {
      out.push(new_of_old[static_cast<usize>(w.row_idx[e])],
               new_of_old[static_cast<usize>(w.col_idx[e])], w.values[e]);
    }
  }
  return out;
}

}  // namespace fastsc::graph
