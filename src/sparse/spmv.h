// Sparse matrix-vector multiplication, host and device.
//
// device_csrmv is the cusparseDcsrmv stand-in driving the paper's Algorithm
// 3: the eigensolver's reverse-communication loop hands a vector to the
// device, the device multiplies by D^-1 W in CSR, and the result goes back.
// The host CSR and COO variants serve the baselines and the format-
// comparison bench.
#pragma once

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

/// CSR matrix living in (simulated) device memory.
struct DeviceCsr {
  index_t rows = 0;
  index_t cols = 0;
  device::DeviceBuffer<index_t> row_ptr;
  device::DeviceBuffer<index_t> col_idx;
  device::DeviceBuffer<real> values;

  DeviceCsr() = default;

  /// Upload a host CSR (three H2D transfers, metered).
  DeviceCsr(device::DeviceContext& ctx, const Csr& host);

  [[nodiscard]] index_t nnz() const noexcept {
    return static_cast<index_t>(col_idx.size());
  }

  /// Download back to the host (three D2H transfers, metered).
  [[nodiscard]] Csr to_host() const;
};

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
/// Worker s owns whole rows [span_row[s], span_row[s+1]) of the merge-path
/// cut merge_path_partition(row_ptr, 0, rows, workers) — the cut
/// sparse::make_row_partition makes for device shards — so hub rows do not
/// serialize the wave: a worker handles at most ceil((rows + nnz) /
/// workers) + max row nnz units of work.  Every row accumulates serially in
/// entry order, so y is bitwise independent of the worker count and equal
/// to the sharded kernel's.  The cut is an O(workers log(rows + nnz)) host
/// search per call; each call publishes the spmv.wave_max_nnz /
/// spmv.wave_mean_nnz balance gauges (and trace counters).
void device_csrmv(device::DeviceContext& ctx, const DeviceCsr& a, const real* x,
                  real* y, real alpha = 1.0, real beta = 0.0);

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
