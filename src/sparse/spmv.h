// Sparse matrix-vector multiplication, host and device.
//
// device_csrmv is the cusparseDcsrmv stand-in driving the paper's Algorithm
// 3: the eigensolver's reverse-communication loop hands a vector to the
// device, the device multiplies by D^-1 W in CSR, and the result goes back.
// The host CSR and COO variants serve the baselines and the format-
// comparison bench.
#pragma once

#include "common/precision.h"
#include "device/device.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

namespace fastsc::sparse {

// ---- host SpMV: y = alpha * A @ x + beta * y ------------------------------

void csr_mv(const Csr& a, const real* x, real* y, real alpha = 1.0,
            real beta = 0.0);

void coo_mv(const Coo& a, const real* x, real* y, real alpha = 1.0,
            real beta = 0.0);

// ---- device-resident CSR and SpMV -----------------------------------------

/// Widening accessor over a DeviceCsr's value array at whatever storage
/// precision it currently holds.  The fp64 branch is a plain array read, so
/// kernels written against the view stay bitwise identical to the
/// pre-precision code on fp64 matrices.
struct CsrValuesView {
  const real* f64 = nullptr;
  const float* f32 = nullptr;
  const std::uint16_t* b16 = nullptr;

  [[nodiscard]] real operator[](index_t p) const noexcept {
    if (f64 != nullptr) return f64[p];
    if (f32 != nullptr) return static_cast<real>(f32[p]);
    return static_cast<real>(float_from_bf16(b16[p]));
  }
};

/// CSR matrix living in (simulated) device memory.  The structure arrays
/// are always index_t; the value array is fp64 on upload and may be demoted
/// in place to fp32/bf16 storage (see demote_csr_values) — kernels then
/// read it through values_view(), widening each entry to fp64 before
/// accumulating.
struct DeviceCsr {
  index_t rows = 0;
  index_t cols = 0;
  device::DeviceBuffer<index_t> row_ptr;
  device::DeviceBuffer<index_t> col_idx;
  device::DeviceBuffer<real> values;  ///< valid iff value_precision == kFp64
  device::DeviceBuffer<float> values_f32;
  device::DeviceBuffer<std::uint16_t> values_b16;
  Precision value_precision = Precision::kFp64;

  DeviceCsr() = default;

  /// Upload a host CSR (three H2D transfers, metered).
  DeviceCsr(device::DeviceContext& ctx, const Csr& host);

  [[nodiscard]] index_t nnz() const noexcept {
    return static_cast<index_t>(col_idx.size());
  }

  [[nodiscard]] CsrValuesView values_view() const noexcept {
    CsrValuesView v;
    switch (value_precision) {
      case Precision::kFp64: v.f64 = values.data(); break;
      case Precision::kFp32: v.f32 = values_f32.data(); break;
      case Precision::kBf16: v.b16 = values_b16.data(); break;
    }
    return v;
  }

  /// Download back to the host (three D2H transfers, metered); values are
  /// widened to fp64 from whatever storage precision the matrix holds.
  [[nodiscard]] Csr to_host() const;
};

/// Convert a device CSR's value array to `p` storage in place (one device
/// pass, site "precision.demote"), releasing the fp64 copy.  Only fp64 ->
/// {fp32, bf16} conversions are supported; demoting to the current
/// precision is a no-op.
void demote_csr_values(device::DeviceContext& ctx, DeviceCsr& a, Precision p);

/// COO matrix living in device memory (graph construction output).
struct DeviceCoo {
  index_t rows = 0;
  index_t cols = 0;
  device::DeviceBuffer<index_t> row_idx;
  device::DeviceBuffer<index_t> col_idx;
  device::DeviceBuffer<real> values;

  DeviceCoo() = default;
  DeviceCoo(device::DeviceContext& ctx, const Coo& host);

  [[nodiscard]] index_t nnz() const noexcept {
    return static_cast<index_t>(values.size());
  }

  [[nodiscard]] Coo to_host() const;
};

/// y = alpha * A @ x + beta * y with device pointers (cusparseDcsrmv).
/// Same kernel as device_csrmv_mp at fp64 with no fused scale.
void device_csrmv(device::DeviceContext& ctx, const DeviceCsr& a, const real* x,
                  real* y, real alpha = 1.0, real beta = 0.0);

/// The one device csrmv.  Worker s owns whole rows [span_row[s],
/// span_row[s+1]) of the merge-path cut merge_path_partition(row_ptr, 0,
/// rows, workers) — the cut sparse::make_row_partition makes for device
/// shards — so hub rows no longer serialize the wave: a worker handles at
/// most ceil((rows + nnz) / workers) + max row nnz units of work.  Every
/// row accumulates serially in entry order, so y is bitwise independent of
/// the worker count and equal to the sharded kernel's.  The cut is an
/// O(workers log(rows + nnz)) host search per call; each call publishes
/// the spmv.wave_max_nnz / spmv.wave_mean_nnz balance gauges (and trace
/// counters).
///
/// Matrix values are read through the CSR's storage precision, x and y
/// through their view widths, and every product accumulates in fp64.  With
/// `fused_scale` == s non-null the kernel computes the symmetric similarity
/// transform in one pass (site "spmv.fused_scale"):
///
///   y[r] = s[r] * (alpha * sum_p w[p] * (s[col[p]] * x[col[p]]) + beta*y[r])
///
/// which for beta == 0 is bitwise identical to the three-launch
/// z = s (.) x; t = W z; y = s (.) t sequence in fp64 — the fusion removes
/// the two n-length passes, not any rounding.  (The beta != 0 form scales
/// the beta*y term too; the eigensolver only uses beta == 0.)  The s
/// vector is modeled as cache-resident: its DRAM traffic is counted once
/// (rows * 8 bytes), not per entry.
///
/// `row_offset` places a row block inside the global operator: row r of `a`
/// is global row row_offset + r, so the epilogue scales it by
/// s[row_offset + r] while columns (global indices) read s[col] — the shape
/// a device's row shard multiplies with (sparse/shard.h).
void device_csrmv_mp(device::DeviceContext& ctx, const DeviceCsr& a,
                     ConstVecView x, VecView y, real alpha = 1.0,
                     real beta = 0.0, const real* fused_scale = nullptr,
                     index_t row_offset = 0);

/// Alias of device_csrmv, kept for callers that name the balanced kernel.
void device_csrmv_balanced(device::DeviceContext& ctx, const DeviceCsr& a,
                           const real* x, real* y, real alpha = 1.0,
                           real beta = 0.0);

/// Y = alpha * A @ X + beta * Y for `nvec` packed vectors: X is row-major
/// nvec x cols (each row one input vector), Y is nvec x rows.  One sweep of
/// the matrix serves the whole block (cusparseDcsrmm with the dense operand
/// transposed), amortizing the A read that dominates a single csrmv.  Row j
/// of Y is bitwise identical to device_csrmv(a, X row j) — the per-row
/// accumulation order is the same.
void device_csrmm(device::DeviceContext& ctx, const DeviceCsr& a,
                  const real* x, real* y, index_t nvec, real alpha = 1.0,
                  real beta = 0.0);

/// The paper's sort + cusparseXcoo2csr in one launch: compress a device
/// COO in any entry order into a CSR ordered by (row, col), entries with
/// equal (row, col) kept in COO order — exactly what a stable sort by
/// (row, col) followed by coo2csr gives.  `coo` is only read.  Worker s
/// owns the row range [s * rows / S, (s + 1) * rows / S): it counts its
/// rows' entries over the whole COO, scatters them in entry order (a
/// stable counting pass by row), then stable-sorts by column each of its
/// rows that is out of order.  The output depends on the input alone,
/// never on the worker count.  Row indices must lie in [0, rows).
void device_coo2csr(device::DeviceContext& ctx, const DeviceCoo& coo,
                    DeviceCsr& out);

}  // namespace fastsc::sparse
