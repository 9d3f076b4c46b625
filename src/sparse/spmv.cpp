#include "sparse/spmv.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/balance.h"

namespace fastsc::sparse {

namespace {

/// Shared beta prologue of the accumulate-style host SpMVs: y = beta * y,
/// with beta == 0 writing zeros outright so callers may pass fresh
/// (uninitialized) storage — NaNs in y must never leak through 0 * NaN.
inline void host_beta_prologue(index_t rows, real beta, real* y) {
  if (beta == 0) {
    std::fill(y, y + rows, 0.0);
  } else if (beta != 1) {
    for (index_t r = 0; r < rows; ++r) y[r] *= beta;
  }
}

}  // namespace

void csr_mv(const Csr& a, const real* x, real* y, real alpha, real beta) {
  host_beta_prologue(a.rows, beta, y);
  for (index_t r = 0; r < a.rows; ++r) {
    real acc = 0;
    for (index_t p = a.row_ptr[static_cast<usize>(r)];
         p < a.row_ptr[static_cast<usize>(r) + 1]; ++p) {
      acc += a.values[static_cast<usize>(p)] *
             x[a.col_idx[static_cast<usize>(p)]];
    }
    y[r] += alpha * acc;
  }
}

void coo_mv(const Coo& a, const real* x, real* y, real alpha, real beta) {
  host_beta_prologue(a.rows, beta, y);
  const usize nnz = a.values.size();
  for (usize i = 0; i < nnz; ++i) {
    y[a.row_idx[i]] += alpha * a.values[i] * x[a.col_idx[i]];
  }
}

DeviceCsr::DeviceCsr(device::DeviceContext& ctx, const Csr& host)
    : rows(host.rows),
      cols(host.cols),
      row_ptr(ctx, std::span<const index_t>(host.row_ptr)),
      col_idx(ctx, std::span<const index_t>(host.col_idx)),
      values(ctx, std::span<const real>(host.values)) {}

Csr DeviceCsr::to_host() const {
  Csr out;
  out.rows = rows;
  out.cols = cols;
  out.row_ptr = row_ptr.to_host();
  out.col_idx = col_idx.to_host();
  out.values = values.to_host();
  return out;
}

DeviceCoo::DeviceCoo(device::DeviceContext& ctx, const Coo& host)
    : rows(host.rows),
      cols(host.cols),
      row_idx(ctx, std::span<const index_t>(host.row_idx)),
      col_idx(ctx, std::span<const index_t>(host.col_idx)),
      values(ctx, std::span<const real>(host.values)) {}

Coo DeviceCoo::to_host() const {
  Coo out(rows, cols);
  out.row_idx = row_idx.to_host();
  out.col_idx = col_idx.to_host();
  out.values = values.to_host();
  return out;
}

void device_csrmv(device::DeviceContext& ctx, const DeviceCsr& a, const real* x,
                  real* y, real alpha, real beta) {
  const index_t* row_ptr = a.row_ptr.data();
  const index_t* col_idx = a.col_idx.data();
  const real* w = a.values.data();
  const index_t rows = a.rows;
  const double nnz = static_cast<double>(a.nnz());
  if (rows <= 0) return;

  // Whole-row spans of the merge-path cut: span s owns every entry of rows
  // [span_row[s], span_row[s+1]), so each row is summed by one worker in
  // entry order.
  const auto spans = static_cast<index_t>(ctx.pool().worker_count());
  const MergePathPartition part =
      merge_path_partition(row_ptr, 0, rows, spans);
  const std::vector<index_t>& span_row = part.span_row;
  index_t max_nnz = 0;
  for (index_t s = 0; s < part.spans; ++s) {
    max_nnz = std::max(max_nnz,
                       row_ptr[span_row[static_cast<usize>(s) + 1]] -
                           row_ptr[span_row[static_cast<usize>(s)]]);
  }
  obs::metrics().set_gauge("spmv.wave_max_nnz", static_cast<double>(max_nnz));
  obs::metrics().set_gauge("spmv.wave_mean_nnz",
                           static_cast<double>(part.mean_span_nnz));
  if (obs::trace_enabled()) {
    const double ts = obs::wall_now_us();
    obs::trace().counter("spmv.wave_max_nnz", static_cast<double>(max_nnz),
                         ts);
    obs::trace().counter("spmv.wave_mean_nnz",
                         static_cast<double>(part.mean_span_nnz), ts);
  }

  const index_t* cut = span_row.data();
  device::launch(
      ctx, part.spans,
      [=](index_t s) {
        for (index_t r = cut[s]; r < cut[s + 1]; ++r) {
          real acc = 0;
          for (index_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
            acc += w[p] * x[col_idx[p]];
          }
          // beta == 0 writes outright, so y may be uninitialized storage.
          y[r] = alpha * acc + (beta == 0 ? 0 : beta * y[r]);
        }
      },
      device::tagged("spmv.csr", 2.0 * nnz,
                     nnz * (2.0 * sizeof(real) + sizeof(index_t)) +
                         (rows + 1.0) * sizeof(index_t),
                     static_cast<double>(rows) * sizeof(real)));
}

void device_csrmv_balanced(device::DeviceContext& ctx, const DeviceCsr& a,
                           const real* x, real* y, real alpha, real beta) {
  device_csrmv(ctx, a, x, y, alpha, beta);
}

void device_csrmm(device::DeviceContext& ctx, const DeviceCsr& a,
                  const real* x, real* y, index_t nvec, real alpha,
                  real beta) {
  FASTSC_CHECK(nvec >= 0, "csrmm vector count must be non-negative");
  if (nvec == 0) return;
  const index_t* row_ptr = a.row_ptr.data();
  const index_t* col_idx = a.col_idx.data();
  const real* values = a.values.data();
  const index_t rows = a.rows;
  const index_t cols = a.cols;
  // One sweep of A serves all nvec vectors: for each row the entry list is
  // read once and re-dotted against every input row.  The per-(j, r)
  // accumulation order matches device_csrmv exactly, so Y's row j is
  // bitwise identical to csrmv on X's row j.
  const double nnz = static_cast<double>(a.nnz());
  const device::LaunchConfig mm_cfg = device::tagged(
      "spmv.csrmm", 2.0 * nnz * nvec,
      nnz * (static_cast<double>(sizeof(real)) + sizeof(index_t)) +
          nnz * nvec * static_cast<double>(sizeof(real)),
      static_cast<double>(rows) * nvec * sizeof(real));
  device::launch(
      ctx, rows,
      [=](index_t r) {
        for (index_t j = 0; j < nvec; ++j) {
          const real* xj = x + j * cols;
          real acc = 0;
          for (index_t p = row_ptr[r]; p < row_ptr[r + 1]; ++p) {
            acc += values[p] * xj[col_idx[p]];
          }
          real* yj = y + j * rows;
          yj[r] = alpha * acc + (beta == 0 ? 0 : beta * yj[r]);
        }
      },
      mm_cfg);
}

void device_coo2csr(device::DeviceContext& ctx, const DeviceCoo& coo,
                    DeviceCsr& out) {
  out.rows = coo.rows;
  out.cols = coo.cols;
  const index_t nnz = coo.nnz();
  const index_t rows = coo.rows;
  out.row_ptr =
      device::DeviceBuffer<index_t>(ctx, static_cast<usize>(rows) + 1);
  out.col_idx = device::DeviceBuffer<index_t>(ctx, static_cast<usize>(nnz));
  out.values = device::DeviceBuffer<real>(ctx, static_cast<usize>(nnz));

  const index_t* rows_in = coo.row_idx.data();
  const index_t* cols_in = coo.col_idx.data();
  const real* vals_in = coo.values.data();
  index_t* row_ptr = out.row_ptr.data();
  index_t* cols_out = out.col_idx.data();
  real* vals_out = out.values.data();
  // At least one span, so that row_ptr[rows] is written even with no rows.
  const index_t spans = std::max<index_t>(
      1, std::min<index_t>(
             rows, static_cast<index_t>(ctx.pool().worker_count())));
  // Modeled as the GPU formulation: one histogram read and one scatter read
  // of the row indices, one read and one write of every (col, value).
  const double entry_bytes = sizeof(index_t) + sizeof(real);
  device::launch(
      ctx, spans,
      [=](index_t s) {
        const index_t r0 = s * rows / spans;
        const index_t r1 = (s + 1) * rows / spans;
        // Counting pass: entries of earlier rows, then one count per row.
        std::vector<index_t> next(static_cast<usize>(r1 - r0) + 1, 0);
        index_t before = 0;
        for (index_t e = 0; e < nnz; ++e) {
          const index_t r = rows_in[e];
          if (r < r0) {
            ++before;
          } else if (r < r1) {
            ++next[static_cast<usize>(r - r0) + 1];
          }
        }
        next[0] = before;
        for (index_t r = r0; r < r1; ++r) {
          const auto i = static_cast<usize>(r - r0);
          next[i + 1] += next[i];
          row_ptr[r] = next[i];
        }
        if (r1 == rows) row_ptr[rows] = next.back();
        // Scatter in entry order: each row keeps its entries' COO order.
        for (index_t e = 0; e < nnz; ++e) {
          const index_t r = rows_in[e];
          if (r < r0 || r >= r1) continue;
          const index_t p = next[static_cast<usize>(r - r0)]++;
          cols_out[p] = cols_in[e];
          vals_out[p] = vals_in[e];
        }
        // Stable column sort of the rows that are out of order.
        std::vector<std::pair<index_t, real>> row;
        for (index_t r = r0; r < r1; ++r) {
          const index_t b = row_ptr[r];
          const index_t e = next[static_cast<usize>(r - r0)];
          if (std::is_sorted(cols_out + b, cols_out + e)) continue;
          row.clear();
          for (index_t p = b; p < e; ++p) {
            row.emplace_back(cols_out[p], vals_out[p]);
          }
          std::stable_sort(row.begin(), row.end(),
                           [](const auto& x, const auto& y) {
                             return x.first < y.first;
                           });
          for (index_t p = b; p < e; ++p) {
            cols_out[p] = row[static_cast<usize>(p - b)].first;
            vals_out[p] = row[static_cast<usize>(p - b)].second;
          }
        }
      },
      device::tagged("sparse.coo2csr", static_cast<double>(nnz),
                     nnz * (2.0 * sizeof(index_t) + entry_bytes),
                     nnz * entry_bytes + (rows + 1.0) * sizeof(index_t)));
}

}  // namespace fastsc::sparse
