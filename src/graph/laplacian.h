// Graph Laplacians (paper §II Step 2 and §IV.B, Algorithm 2).
//
// The pipeline's eigenproblem is on the random-walk operator P = D^-1 W:
// its largest-algebraic eigenvectors equal the smallest eigenvectors of the
// normalized Laplacian Ln = I - D^-1 W (the paper computes the largest of
// D^-1 W for numerical stability).  The device path follows Algorithm 2:
// compress the COO (sparse::device_coo2csr, which folds the paper's sort
// into a stable counting pass), degrees (the ones-vector SpMV, as row
// sums), then a ScaleElements kernel over the CSR rows.  W itself is only
// read.
#pragma once

#include <span>
#include <vector>

#include "device/device.h"
#include "device/device_group.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/shard.h"
#include "sparse/spmv.h"

namespace fastsc::graph {

/// Weighted degree vector d_i = sum_j W_ij from COO.
[[nodiscard]] std::vector<real> degrees(const sparse::Coo& w);

/// Host: random-walk normalized operator P = D^-1 W as CSR.
/// Throws if any degree is <= 0 (remove isolated nodes first).
[[nodiscard]] sparse::Csr normalized_rw_host(const sparse::Coo& w);

/// Host: unnormalized Laplacian L = D - W as CSR.
[[nodiscard]] sparse::Csr unnormalized_laplacian(const sparse::Coo& w);

/// Host: symmetric normalized Laplacian Lsym = I - D^-1/2 W D^-1/2 as CSR.
[[nodiscard]] sparse::Csr sym_normalized_laplacian(const sparse::Coo& w);

/// Device (Algorithm 2): from a device COO W in any entry order, produce
/// the CSR of D^-1 W on the device, W untouched.  Steps: coo2csr; ones
/// vector; y = W * 1 via csrmv; ScaleElements kernel (row r's entries
/// divided by y_r).  Throws if a zero degree is found.
[[nodiscard]] sparse::DeviceCsr normalized_rw_device(
    device::DeviceContext& ctx, const sparse::DeviceCoo& w);

/// Host: the symmetric operator S = D^-1/2 W D^-1/2.
///
/// D^-1 W itself is similar to S (S = D^1/2 (D^-1 W) D^-1/2), so the two
/// share eigenvalues and their eigenvectors map as v_rw = D^-1/2 u_sym.
/// The symmetric Lanczos iteration requires a symmetric operand, so the
/// pipeline's eigensolver stage runs on S and back-maps the eigenvectors —
/// numerically equivalent to the paper's "largest eigenvectors of D^-1 W"
/// formulation (§IV.B).  Fills `inv_sqrt_degree` with 1/sqrt(d_i).
[[nodiscard]] sparse::Csr sym_normalized_host(
    const sparse::Coo& w, std::vector<real>& inv_sqrt_degree);

/// Output of Algorithm 2 over a DeviceGroup (sym_normalized_group).
struct GroupNormalized {
  /// Device d's normalized row block (rows = part.size(d), global column
  /// indices), values resident on device d.
  std::vector<sparse::DeviceCsr> blocks;
  /// Full-length 1/sqrt(d) on every device (ScaleElements reads it at
  /// global columns).
  std::vector<device::DeviceBuffer<real>> isd;
  /// Host 1/sqrt(d_i), globally indexed (the embedding back-map needs it).
  std::vector<real> inv_sqrt_degree;
};

/// Algorithm 2 over a DeviceGroup: device d turns `chunks[d]` — the COO of
/// rows [part.begin(d), part.end(d)) with local row and global column
/// indices, resident on device d, in any entry order — into its row block
/// of S = D^-1/2 W D^-1/2: compress the chunk (device_coo2csr), degrees as
/// row sums (whole merge-path rows per worker), a zero-degree check on the
/// host, 1/sqrt(d) on the device's own rows, an allgather of those segments
/// over the D2D mesh ("d2d.isd_allgather"; nothing to gather for a group of
/// one), and the ScaleElements kernel over the block's rows.  The chunks
/// are only read, so a rerun over the same chunks rebuilds the same
/// operator.  Every value is bitwise independent of the partition: each
/// row's stable (row, col) entry order is the same in every chunk that
/// holds it, and the degree / scale arithmetic is the same expression on
/// every device.
[[nodiscard]] GroupNormalized sym_normalized_group(
    device::DeviceGroup& group, std::span<const sparse::DeviceCoo> chunks,
    const sparse::RowPartition& part);

/// Algorithm 2 on one device: sym_normalized_group over a group of one,
/// with `w` (any entry order; only read) as the whole chunk.  Fills
/// `inv_sqrt_degree` with the device's 1/sqrt(d_i).
[[nodiscard]] sparse::DeviceCsr sym_normalized_device(
    device::DeviceContext& ctx, const sparse::DeviceCoo& w,
    device::DeviceBuffer<real>& inv_sqrt_degree);

}  // namespace fastsc::graph
