// 1-D row sharding of a CSR operator across a DeviceGroup.
//
// The multi-GPU layout follows Sgherzi et al. (arXiv:2201.07498): device d
// owns a contiguous row block of A (global column indices preserved) plus a
// full-length replica of the dense vector x.  A sharded SpMV wave is then
//
//   1. each device uploads its *own* x segment over its PCIe link,
//   2. devices exchange halos peer-to-peer: device e gathers the x values
//      devices d != e reference from e's row range (the request lists are
//      exchanged once at shard-build time, as a real implementation would),
//      ships them over the modeled D2D link, and d scatters them into its
//      replica,
//   3. each device multiplies its rows — *interior* rows (every referenced
//      column inside the own range) start as soon as the own segment is up,
//      overlapping the halo exchange on the virtual timeline; *frontier*
//      rows wait for the scatter,
//   4. each device downloads its y segment.
//
// The wave runs through one {transfer, compute} PipelineExecutor per device,
// so every copy and kernel lands on the owning device's virtual timeline and
// exchange/compute overlap is metered per device.
//
// Determinism contract (tests/test_sharded_differential.cpp): the per-row
// accumulation loop is identical to device_csrmv — ascending CSR entry
// order into one scalar accumulator — and the replica holds bitwise the
// same x values regardless of which link delivered them, so a sharded
// multiply is bitwise equal to the single-device kernel for every device
// count.  Row cuts can be aligned to a block size so blocked cross-device
// reductions (core/sharded.cpp k-means) keep a fixed fold order too.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "device/device_group.h"
#include "device/executor.h"
#include "sparse/balance.h"
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

/// One device's shard: the local row block (global columns), the halo
/// bookkeeping, and the exchange staging buffers.
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

  /// Global rows whose columns all fall inside the own range (computable
  /// before the halo lands) vs. the rest.
  std::vector<index_t> interior_rows;
  std::vector<index_t> frontier_rows;

  // Device-resident exchange state.
  device::DeviceBuffer<real> x_replica;        ///< length = global cols
  device::DeviceBuffer<index_t> halo_idx;      ///< device copy of `halo`
  device::DeviceBuffer<real> halo_vals;        ///< recv staging, |halo|
  device::DeviceBuffer<index_t> interior_idx;  ///< device row lists
  device::DeviceBuffer<index_t> frontier_idx;
  device::DeviceBuffer<real> y_local;          ///< local y segment

  /// Staging precision (mixed-precision ladder): when narrower than fp64,
  /// the PCIe x/y staging and the D2D halo exchange move scalars packed at
  /// this width, and the SpMV kernels read x straight from the packed
  /// full-column replica `x_narrow` (the fp64 x_replica above is fp64-path
  /// only).  Every slot of x_narrow holds the same narrow bytes on every
  /// device — locals land via the packed upload, halo slots via the byte
  /// exchange — and load-widening is exact, so the kernels see exactly
  /// quantize(x[i]) regardless of which link delivered each value,
  /// preserving the bitwise determinism contract across device counts.
  Precision stage_precision = Precision::kFp64;
  device::DeviceBuffer<unsigned char> x_narrow;    ///< global cols * width
  device::DeviceBuffer<unsigned char> y_stage;     ///< rows() * width
  device::DeviceBuffer<unsigned char> halo_stage;  ///< |halo| * width
  device::DeviceBuffer<unsigned char> send_stage;  ///< |send_idx| * width

  /// Full-length D^{-1/2} replica for the fused SpMV epilogue (empty =
  /// unfused; see device_csrmv_mp for the fused semantics).
  device::DeviceBuffer<real> fused_scale;
  /// Entry counts under the two row lists (kernel cost telemetry).
  index_t interior_nnz = 0;
  index_t frontier_nnz = 0;
  /// Request lists of every *other* device d — the subset of d's halo
  /// inside this device's row range — concatenated in ascending d so the
  /// whole gather is ONE kernel launch per wave (the per-peer variant
  /// spends N-1 launch latencies and dominates the modeled time at scale).
  /// send_begin[d] .. send_begin[d+1]) is the slice destined for device d.
  device::DeviceBuffer<index_t> send_idx;
  device::DeviceBuffer<real> send_buf;
  std::vector<usize> send_begin;  ///< size parts + 1

  [[nodiscard]] index_t rows() const noexcept { return row_end - row_begin; }
};

/// A CSR row-sharded across every device of a group, with one persistent
/// {transfer, compute} executor per device (reset between waves so the
/// virtual clocks persist across the RCI loop like the single-device
/// pipeline's streams do).
struct ShardedCsr {
  device::DeviceGroup* group = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t nnz = 0;
  RowPartition part;
  std::vector<DeviceCsrShard> shards;
  std::vector<std::unique_ptr<device::PipelineExecutor>> executors;
};

/// Shard `a` (square or rectangular; columns index x) across all devices of
/// `group` using the merge-path row partition.  `align` rounds row cuts
/// (see make_row_partition).  Uploads each shard's CSR arrays and row lists
/// over the owning device's link (metered H2D).
[[nodiscard]] ShardedCsr shard_csr(device::DeviceGroup& group, const Csr& a,
                                   index_t align = 1, index_t row_weight = 1);

/// Build a ShardedCsr from per-device row blocks that are ALREADY resident
/// on their devices — the distributed-normalization path, where each device
/// assembled and scaled its own block and the values never round-trip
/// through the host.  `locals[d]` is device d's block (rows = part.size(d),
/// global column indices); `structure[d]` is its host mirror (row_ptr and
/// col_idx only; values may be empty) used to build the halo bookkeeping.
/// `part` must be the partition the blocks were cut with.
[[nodiscard]] ShardedCsr shard_device_locals(device::DeviceGroup& group,
                                             const RowPartition& part,
                                             std::vector<DeviceCsr> locals,
                                             const std::vector<Csr>& structure);

/// Switch every wave's x/y PCIe staging and halo exchange to width `p`,
/// allocating the packed staging buffers (kFp64 reverts to the direct fp64
/// copies; buffers stay allocated).  Values already on device are
/// unaffected — pair with demote_sharded_values for the full ladder rung.
void set_sharded_stage_precision(ShardedCsr& a, Precision p);

/// Demote every shard's local value array to `p` storage in place (one
/// "precision.demote" pass per device; see demote_csr_values).
void demote_sharded_values(ShardedCsr& a, Precision p);

/// Install a fused D^{-1/2} epilogue from per-device full-length replicas
/// of the scale vector (ownership transferred; replicas[d] must live on
/// device d and have length cols).  Subsequent waves compute y = S A S x
/// in the multiply kernels, matching device_csrmv_mp's fused semantics.
void set_sharded_fused_scale(ShardedCsr& a,
                             std::vector<device::DeviceBuffer<real>> replicas);

/// Convenience for tests: upload a host scale vector (length cols) to every
/// device (metered H2D) and install it as the fused epilogue.
void set_sharded_fused_scale(ShardedCsr& a, const real* scale);

/// One sharded SpMV wave: y = A x with host-resident x (length cols) and y
/// (length rows).  Bitwise equal to device_csrmv of the unsharded matrix
/// for any device count (at fp64 staging, to device_csrmv_mp at the shared
/// staging precision otherwise).  Fault sites: the halo copies ride
/// "d2d.halo"; uploads/downloads ride the copy.h2d / copy.d2h mechanisms.
void sharded_csrmv(ShardedCsr& a, const real* x, real* y);

/// Sharded SpMM for `nvec` packed vectors, X row-major nvec x cols and Y
/// nvec x rows (the device_csrmm convention); row j of Y is bitwise equal
/// to sharded_csrmv on X's row j.  Exchange buffers for the block are
/// allocated per call (the differential suite's workload, not a hot path).
void sharded_csrmm(ShardedCsr& a, const real* x, real* y, index_t nvec);

}  // namespace fastsc::sparse
