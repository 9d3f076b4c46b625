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

/// Cost model of one csrmv-shaped launch over `nnz` entries and `rows`
/// rows, accounting each scalar array at its storage width.  The fused
/// scale vector is modeled cache-resident: one read of rows * 8 bytes, not
/// nnz * 8 — matching what an n-length vector costs a real GPU's DRAM.
device::LaunchConfig csrmv_cost(const char* site, double nnz, double rows,
                                Precision w, Precision x, Precision y,
                                bool fused) {
  const double bw = static_cast<double>(bytes_per_scalar(w));
  const double bx = static_cast<double>(bytes_per_scalar(x));
  const double by = static_cast<double>(bytes_per_scalar(y));
  const double scale_bytes = fused ? 2.0 * rows * sizeof(real) : 0.0;
  device::LaunchConfig cfg = device::tagged(
      site, (fused ? 3.0 : 2.0) * nnz + (fused ? rows : 0.0),
      nnz * (bw + bx + sizeof(index_t)) + (rows + 1.0) * sizeof(index_t) +
          scale_bytes,
      rows * by);
  // Byte-weighted storage width over the scalar arrays only (structure
  // indices excluded): 8 for pure fp64, smaller as storage narrows.
  const double scalar_elems = 2.0 * nnz + rows + (fused ? 2.0 * rows : 0.0);
  const double scalar_bytes = nnz * (bw + bx) + rows * by + scale_bytes;
  cfg.bytes_per_scalar = scalar_elems > 0 ? scalar_bytes / scalar_elems : 8.0;
  return cfg;
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
  switch (value_precision) {
    case Precision::kFp64:
      out.values = values.to_host();
      break;
    case Precision::kFp32: {
      const std::vector<float> v = values_f32.to_host();
      out.values.resize(v.size());
      for (usize i = 0; i < v.size(); ++i) {
        out.values[i] = static_cast<real>(v[i]);
      }
      break;
    }
    case Precision::kBf16: {
      const std::vector<std::uint16_t> v = values_b16.to_host();
      out.values.resize(v.size());
      for (usize i = 0; i < v.size(); ++i) {
        out.values[i] = static_cast<real>(float_from_bf16(v[i]));
      }
      break;
    }
  }
  return out;
}

void demote_csr_values(device::DeviceContext& ctx, DeviceCsr& a, Precision p) {
  if (p == a.value_precision) return;
  FASTSC_CHECK(a.value_precision == Precision::kFp64,
               "demote_csr_values: only fp64 values can be demoted");
  const index_t nnz = a.nnz();
  const real* src = a.values.data();
  device::LaunchConfig cfg = device::tagged(
      "precision.demote", static_cast<double>(nnz),
      nnz * static_cast<double>(sizeof(real)),
      nnz * static_cast<double>(bytes_per_scalar(p)));
  cfg.bytes_per_scalar = static_cast<double>(bytes_per_scalar(p));
  if (p == Precision::kFp32) {
    a.values_f32 = device::DeviceBuffer<float>(ctx, static_cast<usize>(nnz));
    float* dst = a.values_f32.data();
    device::launch(ctx, nnz,
                   [=](index_t i) { dst[i] = float_from_real(src[i]); }, cfg);
  } else {
    a.values_b16 =
        device::DeviceBuffer<std::uint16_t>(ctx, static_cast<usize>(nnz));
    std::uint16_t* dst = a.values_b16.data();
    device::launch(
        ctx, nnz,
        [=](index_t i) { dst[i] = bf16_from_float(float_from_real(src[i])); },
        cfg);
  }
  a.value_precision = p;
  // Release the fp64 copy — halving (or quartering) the matrix's device
  // footprint is the point of the demotion.
  a.values = device::DeviceBuffer<real>();
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
  device_csrmv_mp(ctx, a, ConstVecView(x), VecView(y), alpha, beta, nullptr);
}

void device_csrmv_mp(device::DeviceContext& ctx, const DeviceCsr& a,
                     ConstVecView x, VecView y, real alpha, real beta,
                     const real* fused_scale, index_t row_offset) {
  const index_t* row_ptr = a.row_ptr.data();
  const index_t* col_idx = a.col_idx.data();
  const CsrValuesView w = a.values_view();
  const real* sc = fused_scale;
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
            const index_t c = col_idx[p];
            const real xv = sc != nullptr
                                ? sc[c] * x.load(static_cast<usize>(c))
                                : x.load(static_cast<usize>(c));
            acc += w[p] * xv;
          }
          const real t =
              alpha * acc +
              (beta == 0 ? 0 : beta * y.load(static_cast<usize>(r)));
          y.store(static_cast<usize>(r),
                  sc != nullptr ? sc[row_offset + r] * t : t);
        }
      },
      csrmv_cost(sc != nullptr ? "spmv.fused_scale" : "spmv.csr", nnz,
                 static_cast<double>(rows), a.value_precision, x.prec,
                 y.prec, sc != nullptr));
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
  const CsrValuesView values = a.values_view();
  const index_t rows = a.rows;
  const index_t cols = a.cols;
  // One sweep of A serves all nvec vectors: for each row the entry list is
  // read once and re-dotted against every input row.  The per-(j, r)
  // accumulation order matches device_csrmv exactly, so Y's row j is
  // bitwise identical to csrmv on X's row j.
  const double nnz = static_cast<double>(a.nnz());
  const double bw = static_cast<double>(bytes_per_scalar(a.value_precision));
  device::LaunchConfig mm_cfg = device::tagged(
      "spmv.csrmm", 2.0 * nnz * nvec,
      nnz * (bw + sizeof(index_t)) +
          nnz * nvec * static_cast<double>(sizeof(real)),
      static_cast<double>(rows) * nvec * sizeof(real));
  mm_cfg.bytes_per_scalar =
      (nnz * bw + (nnz + rows) * nvec * sizeof(real)) /
      std::max(nnz + (nnz + rows) * nvec, 1.0);
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
  out.value_precision = Precision::kFp64;
  out.values_f32 = device::DeviceBuffer<float>();
  out.values_b16 = device::DeviceBuffer<std::uint16_t>();
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
