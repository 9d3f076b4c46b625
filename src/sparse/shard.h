// 1-D row sharding of a CSR operator across a DeviceGroup.
//
// The multi-GPU layout follows Sgherzi et al. (arXiv:2201.07498): device d
// owns a contiguous row block of A (global column indices preserved) plus a
// full-length replica of the dense vector x.  One SpMV wave
// (sharded_csrmv) runs synchronously on the calling thread, device by
// device:
//
//   1. each device stages its *own* x segment over its PCIe link,
//   2. each device receives its halo: every peer gathers the x values the
//      device references from the peer's row range (request lists are
//      exchanged once at shard-build time), ships them over the modeled D2D
//      link ("d2d.halo"), and the device scatters them into its replica,
//   3. each device multiplies its row block with device_csrmv
//      (whole-row merge-path spans),
//   4. each device's y segment comes back over its link.
//
// A group of one is the single-device wave: its segment is the whole
// vector and there is no halo.
//
// Determinism contract (tests/test_sharded_differential.cpp): every row
// accumulates serially in entry order in one kernel, and the replica holds
// bitwise the same values regardless of which link delivered them, so
// a sharded multiply is bitwise equal to the single-device kernel for every
// device count and worker count.  Row cuts can be aligned to a block size so
// blocked cross-device reductions (k-means) keep a fixed fold order too.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"
#include "device/device_group.h"
#include "sparse/balance.h"
#include "sparse/coo.h"
#include "sparse/csr.h"
#include "sparse/spmv.h"

namespace fastsc::sparse {

/// Contiguous row partition of [0, rows) into `parts` pieces, cut where the
/// merge path (row_weight * rows + nnz work measure) is evenly split, then
/// rounded to `align`-row boundaries.  Boundary rows are owned whole by one
/// part, so with align == 1 and row_weight == 1,
///   nnz(part) <= ceil((rows + nnz) / parts) + max_row_nnz
/// — the merge-path bound plus at most one row (the property
/// tests/test_device_group.cpp asserts).
///
/// `row_weight` counts each row as that many merge-path units: the sharded
/// pipeline's per-row dense work (CGS2 reorthogonalization sweeps, k-means
/// assignment, the PCIe x/y staging) scales with rows, not entries, and at
/// weight 1 a partition balanced on nnz alone leaves the sparse shards with
/// the most rows carrying the most dense work.
struct RowPartition {
  index_t rows = 0;
  index_t parts = 0;
  std::vector<index_t> cuts;  ///< size parts + 1; cuts[0]=0, back()=rows

  /// Balance telemetry over the whole-row shards.
  index_t max_part_nnz = 0;
  real mean_part_nnz = 0;
  index_t max_row_nnz = 0;

  [[nodiscard]] index_t begin(index_t p) const {
    return cuts[static_cast<usize>(p)];
  }
  [[nodiscard]] index_t end(index_t p) const {
    return cuts[static_cast<usize>(p) + 1];
  }
  [[nodiscard]] index_t size(index_t p) const { return end(p) - begin(p); }

  /// Part owning global row r (cuts are ascending; binary search).
  [[nodiscard]] index_t owner(index_t r) const;
};

[[nodiscard]] RowPartition make_row_partition(const index_t* row_ptr,
                                              index_t rows, index_t parts,
                                              index_t align = 1,
                                              index_t row_weight = 1);

/// The partition of a group of one: a single part owning every row (no
/// row_ptr needed, so no balance telemetry).
[[nodiscard]] RowPartition whole_partition(index_t rows);

/// Host bucketing of a COO by owning part: chunk d holds the entries of
/// rows [part.begin(d), part.end(d)) with local row indices and global
/// column indices, in their original order within the bucket.
[[nodiscard]] std::vector<Coo> bucket_rows(const Coo& w,
                                           const RowPartition& part);

/// One device's shard: the local row block (global columns), the halo
/// bookkeeping, and the wave's staging buffers.
struct DeviceCsrShard {
  index_t device = 0;
  index_t row_begin = 0;
  index_t row_end = 0;

  /// Local row block as a DeviceCsr with rows = row_end - row_begin and
  /// cols = global n (column indices stay global).
  DeviceCsr local;

  /// Sorted global columns outside [row_begin, row_end) referenced by local
  /// entries — exactly the values this device must receive each wave.
  std::vector<index_t> halo;
  /// halo[halo_peer_begin[e] .. halo_peer_begin[e+1]) lie in peer e's row
  /// range (size parts + 1; own range is empty by construction).
  std::vector<usize> halo_peer_begin;
  device::DeviceBuffer<index_t> halo_idx;  ///< device copy of `halo`
  /// Request lists of every *other* device d — the subset of d's halo
  /// inside this device's row range — concatenated in ascending d so the
  /// whole gather is ONE kernel launch per wave.
  /// [send_begin[d], send_begin[d+1]) is the slice destined for device d.
  device::DeviceBuffer<index_t> send_idx;
  std::vector<usize> send_begin;  ///< size parts + 1

  /// Wave buffers: the full-column x replica (own segment + halo slots are
  /// written each wave), the local y segment, and the halo receive / send
  /// staging.
  device::DeviceBuffer<real> x;
  device::DeviceBuffer<real> y;
  device::DeviceBuffer<real> halo_vals;
  device::DeviceBuffer<real> send_buf;

  [[nodiscard]] index_t rows() const noexcept { return row_end - row_begin; }
};

/// A square CSR row-sharded across every device of a group.
struct ShardedCsr {
  device::DeviceGroup* group = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t nnz = 0;
  RowPartition part;
  std::vector<DeviceCsrShard> shards;
};

/// Shard the square host CSR `a` across all devices of `group` using the
/// merge-path row partition (see make_row_partition for `align` and
/// `row_weight`), uploading each block over its device's link.
[[nodiscard]] ShardedCsr shard_csr(device::DeviceGroup& group, const Csr& a,
                                   index_t align = 1, index_t row_weight = 1);

/// Build a ShardedCsr from per-device row blocks that are ALREADY resident
/// on their devices (Algorithm 2's output).  `locals[d]` is device d's
/// block (rows = part.size(d), global column indices); `chunks[d]` is the
/// host COO it was built from — only its column indices are read, to find
/// the halo, and a group of one needs none (`chunks` may be empty).
[[nodiscard]] ShardedCsr shard_device_locals(device::DeviceGroup& group,
                                             const RowPartition& part,
                                             std::vector<DeviceCsr> locals,
                                             const std::vector<Coo>& chunks);

/// Check run on each device's staged x segment right after its upload,
/// before any kernel reads it: `dev` is the segment of `count` scalars on
/// the device, `host` the values it was copied from.  A transient
/// DeviceError thrown here re-runs the upload inside
/// run_transfer_with_retry(`site`).
struct StageCheck {
  const char* site = nullptr;
  std::function<void(usize device, real* dev, const real* host, usize count)>
      check;
};

/// One synchronous SpMV wave, y = A x, with host-resident x and y (length
/// rows): stage, halo exchange, multiply, fetch.  Bitwise equal to
/// device_csrmv of the unsharded matrix for any device and worker count.
/// The halo copies ride the "d2d.halo" fault site; the staging copies ride
/// copy.h2d / copy.d2h.
void sharded_csrmv(ShardedCsr& a, const real* x, real* y,
                   const StageCheck* check = nullptr);

}  // namespace fastsc::sparse
