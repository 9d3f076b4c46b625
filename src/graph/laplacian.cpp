#include "graph/laplacian.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "device/algorithms.h"
#include "sparse/balance.h"
#include "sparse/convert.h"

namespace fastsc::graph {

std::vector<real> degrees(const sparse::Coo& w) {
  std::vector<real> d(static_cast<usize>(w.rows), 0.0);
  for (usize e = 0; e < w.values.size(); ++e) {
    d[static_cast<usize>(w.row_idx[e])] += w.values[e];
  }
  return d;
}

sparse::Csr normalized_rw_host(const sparse::Coo& w) {
  FASTSC_CHECK(w.rows == w.cols, "similarity matrix must be square");
  const std::vector<real> d = degrees(w);
  for (real di : d) {
    FASTSC_CHECK(di > 0,
                 "zero-degree vertex: remove isolated nodes before "
                 "normalizing (paper §IV.B)");
  }
  sparse::Coo scaled = w;
  for (usize e = 0; e < scaled.values.size(); ++e) {
    scaled.values[e] /= d[static_cast<usize>(scaled.row_idx[e])];
  }
  return sparse::coo_to_csr(scaled);
}

sparse::Csr unnormalized_laplacian(const sparse::Coo& w) {
  FASTSC_CHECK(w.rows == w.cols, "similarity matrix must be square");
  const std::vector<real> d = degrees(w);
  sparse::Coo l(w.rows, w.cols);
  l.reserve(w.nnz() + w.rows);
  for (index_t i = 0; i < w.rows; ++i) {
    l.push(i, i, d[static_cast<usize>(i)]);
  }
  for (usize e = 0; e < w.values.size(); ++e) {
    l.push(w.row_idx[e], w.col_idx[e], -w.values[e]);
  }
  sparse::sort_and_merge(l);
  return sparse::coo_to_csr(l);
}

sparse::Csr sym_normalized_laplacian(const sparse::Coo& w) {
  FASTSC_CHECK(w.rows == w.cols, "similarity matrix must be square");
  const std::vector<real> d = degrees(w);
  for (real di : d) {
    FASTSC_CHECK(di > 0, "zero-degree vertex in sym_normalized_laplacian");
  }
  sparse::Coo l(w.rows, w.cols);
  l.reserve(w.nnz() + w.rows);
  for (index_t i = 0; i < w.rows; ++i) l.push(i, i, 1.0);
  for (usize e = 0; e < w.values.size(); ++e) {
    const real scale = std::sqrt(d[static_cast<usize>(w.row_idx[e])] *
                                 d[static_cast<usize>(w.col_idx[e])]);
    l.push(w.row_idx[e], w.col_idx[e], -w.values[e] / scale);
  }
  sparse::sort_and_merge(l);
  return sparse::coo_to_csr(l);
}

namespace {

/// Launch `row(r)` for every row r of `a`.  Each worker owns whole rows of
/// the merge-path cut, so hub rows do not serialize the pass, and a row's
/// entries are visited in entry order by one thread.
template <class Row>
void for_each_row(device::DeviceContext& ctx, const sparse::DeviceCsr& a,
                  const Row& row, const device::LaunchConfig& cfg) {
  const sparse::MergePathPartition mp = sparse::merge_path_partition(
      a.row_ptr.data(), 0, a.rows,
      static_cast<index_t>(ctx.pool().worker_count()));
  const index_t* cut = mp.span_row.data();
  device::launch(
      ctx, mp.spans,
      [=](index_t s) {
        for (index_t r = cut[s]; r < cut[s + 1]; ++r) row(r);
      },
      cfg);
}

}  // namespace

sparse::DeviceCsr normalized_rw_device(device::DeviceContext& ctx,
                                       const sparse::DeviceCoo& w) {
  FASTSC_CHECK(w.rows == w.cols, "similarity matrix must be square");
  obs::AttrSiteScope attr_site("laplacian.normalize");
  const index_t n = w.rows;

  // The paper's Algorithm 2 performs the degree SpMV with cusparseDcsrmv,
  // which needs a CSR view of W first.
  sparse::DeviceCsr out;
  sparse::device_coo2csr(ctx, w, out);

  // Step 1-2: ones vector, y = W * 1 (y_i = d_ii).
  device::DeviceBuffer<real> ones(ctx, static_cast<usize>(n));
  device::DeviceBuffer<real> y(ctx, static_cast<usize>(n));
  device::fill(ctx, ones.data(), n, real{1});
  sparse::device_csrmv(ctx, out, ones.data(), y.data());

  // Degree positivity check (downloads n doubles; one-off).
  {
    const std::vector<real> yh = y.to_host();
    for (real di : yh) {
      FASTSC_CHECK(di > 0,
                   "zero-degree vertex: remove isolated nodes before "
                   "normalizing (paper §IV.B)");
    }
  }

  // Step 3: ScaleElements — row r's entries are divided by y[r].
  const index_t* rp = out.row_ptr.data();
  real* vals = out.values.data();
  const real* yp = y.data();
  const auto nnz = static_cast<double>(out.nnz());
  for_each_row(
      ctx, out,
      [=](index_t r) {
        for (index_t p = rp[r]; p < rp[r + 1]; ++p) vals[p] /= yp[r];
      },
      device::tagged("laplacian.scale", nnz,
                     nnz * sizeof(real) + n * (sizeof(real) + sizeof(index_t)),
                     nnz * sizeof(real)));
  return out;
}

sparse::Csr sym_normalized_host(const sparse::Coo& w,
                                std::vector<real>& inv_sqrt_degree) {
  FASTSC_CHECK(w.rows == w.cols, "similarity matrix must be square");
  const std::vector<real> d = degrees(w);
  inv_sqrt_degree.assign(static_cast<usize>(w.rows), 0.0);
  for (usize i = 0; i < d.size(); ++i) {
    FASTSC_CHECK(d[i] > 0,
                 "zero-degree vertex: remove isolated nodes before "
                 "normalizing (paper §IV.B)");
    inv_sqrt_degree[i] = 1.0 / std::sqrt(d[i]);
  }
  sparse::Coo scaled = w;
  for (usize e = 0; e < scaled.values.size(); ++e) {
    scaled.values[e] *= inv_sqrt_degree[static_cast<usize>(scaled.row_idx[e])] *
                        inv_sqrt_degree[static_cast<usize>(scaled.col_idx[e])];
  }
  return sparse::coo_to_csr(scaled);
}

namespace {

/// Degrees y_r = sum_j W_rj of a CSR row block: Algorithm 2's ones-vector
/// SpMV without the ones vector.  Each row sums in entry order — bitwise
/// the csrmv against ones (w * 1.0 == w) at every worker count and
/// partition.
void row_sums(device::DeviceContext& ctx, const sparse::DeviceCsr& a,
              real* y) {
  const index_t* rp = a.row_ptr.data();
  const real* v = a.values.data();
  const auto nnz = static_cast<double>(a.nnz());
  const auto rows = static_cast<double>(a.rows);
  for_each_row(
      ctx, a,
      [=](index_t r) {
        real acc = 0;
        for (index_t p = rp[r]; p < rp[r + 1]; ++p) acc += v[p];
        y[r] = acc;
      },
      device::tagged("laplacian.normalize", nnz,
                     nnz * sizeof(real) + (rows + 1) * sizeof(index_t),
                     rows * sizeof(real)));
}

}  // namespace

GroupNormalized sym_normalized_group(device::DeviceGroup& group,
                                     std::span<const sparse::DeviceCoo> chunks,
                                     const sparse::RowPartition& part) {
  const usize P = group.size();
  FASTSC_CHECK(chunks.size() == P && part.parts == static_cast<index_t>(P),
               "Algorithm 2 needs one COO chunk per device");
  obs::AttrSiteScope attr_site("laplacian.normalize");
  const index_t n = part.rows;

  GroupNormalized out;
  out.blocks.resize(P);
  out.isd.resize(P);
  std::vector<real> deg(static_cast<usize>(n));
  std::vector<device::DeviceBuffer<real>> y(P);
  for (usize d = 0; d < P; ++d) {
    device::DeviceContext& ctx = group.device(d);
    const sparse::DeviceCoo& chunk = chunks[d];
    const index_t rb = part.begin(static_cast<index_t>(d));
    const index_t nl = part.size(static_cast<index_t>(d));
    FASTSC_CHECK(chunk.rows == nl && chunk.cols == n,
                 "COO chunk shape disagrees with the partition");
    sparse::device_coo2csr(ctx, chunk, out.blocks[d]);
    if (nl == 0) continue;
    const std::span<real> seg(deg.data() + rb, static_cast<usize>(nl));
    y[d] = device::DeviceBuffer<real>(ctx, seg.size());
    row_sums(ctx, out.blocks[d], y[d].data());
    y[d].copy_to_host(seg);
  }
  out.inv_sqrt_degree.resize(deg.size());
  for (usize i = 0; i < deg.size(); ++i) {
    FASTSC_CHECK(deg[i] > 0,
                 "zero-degree vertex: remove isolated nodes before "
                 "normalizing (paper §IV.B)");
    out.inv_sqrt_degree[i] = 1.0 / std::sqrt(deg[i]);
  }

  // Full 1/sqrt(d) on every device: the own segment is computed in place,
  // every other segment arrives over the D2D mesh (each device broadcasts
  // its slice to all peers — a one-time allgather).
  for (usize d = 0; d < P; ++d) {
    device::DeviceContext& ctx = group.device(d);
    out.isd[d] = device::DeviceBuffer<real>(ctx, static_cast<usize>(n));
    const index_t nl = part.size(static_cast<index_t>(d));
    if (nl == 0) continue;
    const real* yp = y[d].data();
    real* ip = out.isd[d].data() + part.begin(static_cast<index_t>(d));
    device::launch(ctx, nl, [=](index_t i) { ip[i] = 1.0 / std::sqrt(yp[i]); },
                   device::tagged("laplacian.scale"));
  }
  for (usize d = 0; d < P; ++d) {
    const index_t rb = part.begin(static_cast<index_t>(d));
    const auto nl = static_cast<usize>(part.size(static_cast<index_t>(d)));
    if (nl == 0) continue;
    for (usize e = 0; e < P; ++e) {
      if (e == d) continue;
      group.copy_peer(d, e, out.isd[d].data() + rb, out.isd[e].data() + rb,
                      nl, "d2d.isd_allgather");
    }
  }
  // ScaleElements: row r's entries are scaled by isd[row] * isd[col].
  for (usize d = 0; d < P; ++d) {
    device::DeviceContext& ctx = group.device(d);
    const sparse::DeviceCsr& blk = out.blocks[d];
    const index_t* rp = blk.row_ptr.data();
    const index_t* cols = blk.col_idx.data();
    real* vals = out.blocks[d].values.data();
    const real* isd = out.isd[d].data();
    const index_t rb = part.begin(static_cast<index_t>(d));
    const auto nnz = static_cast<double>(blk.nnz());
    for_each_row(
        ctx, blk,
        [=](index_t r) {
          for (index_t p = rp[r]; p < rp[r + 1]; ++p) {
            vals[p] *= isd[rb + r] * isd[cols[p]];
          }
        },
        device::tagged("laplacian.scale", 2.0 * nnz,
                       nnz * (3.0 * sizeof(real) + sizeof(index_t)) +
                           (blk.rows + 1.0) * sizeof(index_t),
                       nnz * sizeof(real)));
  }
  return out;
}

sparse::DeviceCsr sym_normalized_device(
    device::DeviceContext& ctx, const sparse::DeviceCoo& w,
    device::DeviceBuffer<real>& inv_sqrt_degree) {
  FASTSC_CHECK(w.rows == w.cols, "similarity matrix must be square");
  device::DeviceGroup group(ctx);
  GroupNormalized g = sym_normalized_group(
      group, std::span<const sparse::DeviceCoo>(&w, 1),
      sparse::whole_partition(w.rows));
  inv_sqrt_degree = std::move(g.isd[0]);
  return std::move(g.blocks[0]);
}

}  // namespace fastsc::graph
