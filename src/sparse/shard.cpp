#include "sparse/shard.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace fastsc::sparse {

namespace {

/// Nearest multiple of `align`, monotone in `v` so rounded cuts stay
/// ascending.
index_t round_to_align(index_t v, index_t align) {
  return ((v + align / 2) / align) * align;
}

}  // namespace

index_t RowPartition::owner(index_t r) const {
  const auto it = std::upper_bound(cuts.begin(), cuts.end(), r);
  return static_cast<index_t>(it - cuts.begin()) - 1;
}

RowPartition make_row_partition(const index_t* row_ptr, index_t rows,
                                index_t parts, index_t align,
                                index_t row_weight) {
  parts = std::max<index_t>(parts, 1);
  align = std::max<index_t>(align, 1);
  row_weight = std::max<index_t>(row_weight, 1);
  RowPartition part;
  part.rows = rows;
  part.parts = parts;
  part.cuts.assign(static_cast<usize>(parts) + 1, 0);
  if (rows <= 0) return part;

  // Weighting a row as `w` merge-path units is the same as cutting the
  // merge path of a matrix with w - 1 extra entries per row; synthesizing
  // that row_ptr reuses the unmodified search.
  std::vector<index_t> weighted;
  const index_t* cut_ptr = row_ptr;
  if (row_weight > 1) {
    weighted.resize(static_cast<usize>(rows) + 1);
    for (index_t r = 0; r <= rows; ++r) {
      weighted[static_cast<usize>(r)] = row_ptr[r] + (row_weight - 1) * r;
    }
    cut_ptr = weighted.data();
  }
  const MergePathPartition mp = merge_path_partition(cut_ptr, 0, rows, parts);
  for (index_t p = 1; p < parts; ++p) {
    index_t cut = round_to_align(mp.span_row[static_cast<usize>(p)], align);
    cut = std::min(cut, rows);
    // Whole-row ownership: the straddled boundary row goes to the later
    // part; monotonicity is preserved by clamping against the previous cut.
    part.cuts[static_cast<usize>(p)] =
        std::max(cut, part.cuts[static_cast<usize>(p) - 1]);
  }
  part.cuts[static_cast<usize>(parts)] = rows;

  const index_t nnz = row_ptr[rows];
  part.mean_part_nnz =
      static_cast<real>(nnz) / static_cast<real>(parts);
  for (index_t p = 0; p < parts; ++p) {
    const index_t pn = row_ptr[part.end(p)] - row_ptr[part.begin(p)];
    part.max_part_nnz = std::max(part.max_part_nnz, pn);
  }
  for (index_t r = 0; r < rows; ++r) {
    part.max_row_nnz = std::max(part.max_row_nnz, row_ptr[r + 1] - row_ptr[r]);
  }
  return part;
}

RowPartition whole_partition(index_t rows) {
  RowPartition part;
  part.rows = rows;
  part.parts = 1;
  part.cuts = {0, rows};
  return part;
}

std::vector<Coo> bucket_rows(const Coo& w, const RowPartition& part) {
  std::vector<Coo> chunks(static_cast<usize>(part.parts));
  for (index_t d = 0; d < part.parts; ++d) {
    chunks[static_cast<usize>(d)].rows = part.size(d);
    chunks[static_cast<usize>(d)].cols = w.cols;
  }
  for (usize e = 0; e < w.values.size(); ++e) {
    const index_t d = part.owner(w.row_idx[e]);
    Coo& c = chunks[static_cast<usize>(d)];
    c.row_idx.push_back(w.row_idx[e] - part.begin(d));  // local rows
    c.col_idx.push_back(w.col_idx[e]);                  // global cols
    c.values.push_back(w.values[e]);
  }
  return chunks;
}

namespace {

/// Assemble the sharded operator from resident row blocks: halo
/// bookkeeping from each block's global column indices `cols[d]`, the
/// swapped request lists, and the wave buffers.  A group of one has no
/// peers, so it skips the halo entirely.
ShardedCsr build_sharded(device::DeviceGroup& group, RowPartition part,
                         std::vector<DeviceCsr> locals,
                         const std::vector<std::span<const index_t>>& cols) {
  ShardedCsr out;
  out.group = &group;
  out.rows = part.rows;
  out.cols = part.rows;  // square: x and y share the row partition
  out.part = std::move(part);
  const usize P = group.size();

  out.shards.reserve(P);
  for (usize d = 0; d < P; ++d) {
    device::DeviceContext& ctx = group.device(d);
    const auto di = static_cast<index_t>(d);
    DeviceCsrShard sh;
    sh.device = di;
    sh.row_begin = out.part.begin(di);
    sh.row_end = out.part.end(di);
    sh.local = std::move(locals[d]);
    out.nnz += sh.local.nnz();
    sh.halo_peer_begin.assign(P + 1, 0);
    if (P > 1) {
      for (const index_t c : cols[d]) {
        if (c < sh.row_begin || c >= sh.row_end) sh.halo.push_back(c);
      }
      std::sort(sh.halo.begin(), sh.halo.end());
      sh.halo.erase(std::unique(sh.halo.begin(), sh.halo.end()),
                    sh.halo.end());
      for (usize e = 0; e < P; ++e) {
        sh.halo_peer_begin[e] = static_cast<usize>(
            std::lower_bound(sh.halo.begin(), sh.halo.end(),
                             out.part.begin(static_cast<index_t>(e))) -
            sh.halo.begin());
      }
      sh.halo_peer_begin[P] = sh.halo.size();
    }
    if (!sh.halo.empty()) {
      sh.halo_idx = device::DeviceBuffer<index_t>(
          ctx, std::span<const index_t>(sh.halo));
      sh.halo_vals = device::DeviceBuffer<real>(ctx, sh.halo.size());
    }
    sh.x = device::DeviceBuffer<real>(ctx, static_cast<usize>(out.cols));
    sh.y = device::DeviceBuffer<real>(ctx, static_cast<usize>(sh.rows()));
    out.shards.push_back(std::move(sh));
  }
  for (usize e = 0; e < P; ++e) {
    DeviceCsrShard& se = out.shards[e];
    std::vector<index_t> requests;
    se.send_begin.assign(P + 1, 0);
    for (usize d = 0; d < P; ++d) {
      se.send_begin[d] = requests.size();
      if (d == e) continue;
      const DeviceCsrShard& sd = out.shards[d];
      requests.insert(
          requests.end(),
          sd.halo.begin() + static_cast<std::ptrdiff_t>(sd.halo_peer_begin[e]),
          sd.halo.begin() +
              static_cast<std::ptrdiff_t>(sd.halo_peer_begin[e + 1]));
    }
    se.send_begin[P] = requests.size();
    if (!requests.empty()) {
      device::DeviceContext& ctx = group.device(e);
      se.send_idx = device::DeviceBuffer<index_t>(
          ctx, std::span<const index_t>(requests));
      se.send_buf = device::DeviceBuffer<real>(ctx, requests.size());
    }
  }
  return out;
}

/// One launch moving `n` scalars between a dense vector and a packed list:
/// gather dst[i] = src[idx[i]], or scatter dst[idx[i]] = src[i].
void move_scalars(device::DeviceContext& ctx, const char* site, bool gather,
                  const index_t* idx, const real* src, real* dst, usize n) {
  if (n == 0) return;
  const double c = static_cast<double>(n);
  const double wd = sizeof(real);
  device::LaunchConfig cfg =
      device::tagged(site, c, c * (wd + sizeof(index_t)), c * wd);
  cfg.modeled_seconds = ctx.modeled_kernel_seconds(2.0 * c * wd);
  device::launch(
      ctx, static_cast<index_t>(n),
      [=](index_t i) {
        if (gather) {
          dst[i] = src[idx[i]];
        } else {
          dst[idx[i]] = src[i];
        }
      },
      cfg);
}

}  // namespace

ShardedCsr shard_csr(device::DeviceGroup& group, const Csr& a, index_t align,
                     index_t row_weight) {
  FASTSC_CHECK(a.rows == a.cols,
               "sharded operator must be square: x and y share the row "
               "partition");
  const auto parts = static_cast<index_t>(group.size());
  RowPartition part =
      make_row_partition(a.row_ptr.data(), a.rows, parts, align, row_weight);
  std::vector<Csr> blocks(static_cast<usize>(parts));
  std::vector<DeviceCsr> locals;
  std::vector<std::span<const index_t>> cols;
  for (index_t d = 0; d < parts; ++d) {
    Csr& b = blocks[static_cast<usize>(d)];
    const index_t rb = part.begin(d);
    const index_t re = part.end(d);
    const index_t e0 = a.row_ptr[static_cast<usize>(rb)];
    const index_t e1 = a.row_ptr[static_cast<usize>(re)];
    b.rows = re - rb;
    b.cols = a.cols;
    b.row_ptr.resize(static_cast<usize>(re - rb) + 1);
    for (index_t r = rb; r <= re; ++r) {
      b.row_ptr[static_cast<usize>(r - rb)] =
          a.row_ptr[static_cast<usize>(r)] - e0;
    }
    b.col_idx.assign(a.col_idx.begin() + e0, a.col_idx.begin() + e1);
    b.values.assign(a.values.begin() + e0, a.values.begin() + e1);
    locals.emplace_back(group.device(static_cast<usize>(d)), b);
    cols.emplace_back(b.col_idx);
  }
  return build_sharded(group, std::move(part), std::move(locals), cols);
}

ShardedCsr shard_device_locals(device::DeviceGroup& group,
                               const RowPartition& part,
                               std::vector<DeviceCsr> locals,
                               const std::vector<Coo>& chunks) {
  const usize P = group.size();
  FASTSC_CHECK(part.parts == static_cast<index_t>(P) && locals.size() == P &&
                   (chunks.size() == P || (P == 1 && chunks.empty())),
               "shard_device_locals needs one local block per device");
  std::vector<std::span<const index_t>> cols(P);
  for (usize d = 0; d < P; ++d) {
    FASTSC_CHECK(locals[d].rows == part.size(static_cast<index_t>(d)),
                 "local block shape disagrees with the partition");
    if (!chunks.empty()) cols[d] = chunks[d].col_idx;
  }
  return build_sharded(group, part, std::move(locals), cols);
}

void sharded_csrmv(ShardedCsr& a, const real* x, real* y,
                   const StageCheck* check) {
  FASTSC_CHECK(a.group != nullptr, "sharded_csrmv on an empty ShardedCsr");
  device::DeviceGroup& group = *a.group;
  const usize P = a.shards.size();

  // 1. Every device stages its own x segment.
  for (usize d = 0; d < P; ++d) {
    DeviceCsrShard& sh = a.shards[d];
    const auto count = static_cast<usize>(sh.rows());
    if (count == 0) continue;
    device::DeviceContext& ctx = group.device(d);
    real* dev = sh.x.data() + sh.row_begin;
    const real* host = x + sh.row_begin;
    const auto upload = [&] {
      device::copy_h2d(ctx, dev, host, count);
      if (check != nullptr) check->check(d, dev, host, count);
    };
    if (check != nullptr) {
      device::run_transfer_with_retry(ctx, check->site, upload);
    } else {
      upload();
    }
  }

  // 2. Halo exchange: each device gathers every request of its peers in
  // one launch; each device then receives its slices and scatters them
  // into its replica.
  if (P > 1) {
    for (usize e = 0; e < P; ++e) {
      DeviceCsrShard& se = a.shards[e];
      move_scalars(group.device(e), "spmv.halo_gather", /*gather=*/true,
                   se.send_idx.data(), se.x.data(), se.send_buf.data(),
                   se.send_idx.size());
    }
    for (usize d = 0; d < P; ++d) {
      DeviceCsrShard& sh = a.shards[d];
      for (usize e = 0; e < P; ++e) {
        const usize o0 = sh.halo_peer_begin[e];
        const usize cnt = sh.halo_peer_begin[e + 1] - o0;
        if (e == d || cnt == 0) continue;
        const DeviceCsrShard& pe = a.shards[e];
        group.copy_peer(e, d, pe.send_buf.data() + pe.send_begin[d],
                        sh.halo_vals.data() + o0, cnt, "d2d.halo");
      }
      move_scalars(group.device(d), "spmv.halo_scatter", /*gather=*/false,
                   sh.halo_idx.data(), sh.halo_vals.data(), sh.x.data(),
                   sh.halo.size());
    }
  }

  // 3-4. Every device multiplies its block and fetches its y segment.
  for (usize d = 0; d < P; ++d) {
    DeviceCsrShard& sh = a.shards[d];
    device::DeviceContext& ctx = group.device(d);
    device_csrmv(ctx, sh.local, sh.x.data(), sh.y.data());
    const auto lrows = static_cast<usize>(sh.rows());
    if (lrows == 0) continue;
    device::copy_d2h(ctx, y + sh.row_begin, sh.y.data(), lrows);
  }
}

}  // namespace fastsc::sparse
