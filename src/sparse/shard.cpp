#include "sparse/shard.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "device/stream.h"

namespace fastsc::sparse {

namespace {

using device::PipelineExecutor;

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

namespace {

/// Host-side shard bookkeeping: local structure, halo, interior/frontier.
struct HostShard {
  Csr local;  ///< local structure (values present only on the upload path)
  std::vector<index_t> halo;
  std::vector<usize> halo_peer_begin;
  std::vector<index_t> interior;
  std::vector<index_t> frontier;
  index_t interior_nnz = 0;
  index_t frontier_nnz = 0;
};

/// Fill halo / interior / frontier from `hs.local`'s structure (row_ptr and
/// global col_idx).  `hs.local` must already hold the row block [rb, re).
void classify_shard(HostShard& hs, const RowPartition& part, index_t rb,
                    index_t re) {
  const index_t parts = part.parts;
  // Halo: sorted unique out-of-range columns.
  hs.halo = hs.local.col_idx;
  std::sort(hs.halo.begin(), hs.halo.end());
  hs.halo.erase(std::unique(hs.halo.begin(), hs.halo.end()), hs.halo.end());
  std::erase_if(hs.halo, [rb, re](index_t c) { return c >= rb && c < re; });
  // Per-peer slice boundaries of the sorted halo.
  hs.halo_peer_begin.resize(static_cast<usize>(parts) + 1);
  for (index_t e = 0; e < parts; ++e) {
    hs.halo_peer_begin[static_cast<usize>(e)] = static_cast<usize>(
        std::lower_bound(hs.halo.begin(), hs.halo.end(), part.begin(e)) -
        hs.halo.begin());
  }
  hs.halo_peer_begin[static_cast<usize>(parts)] = hs.halo.size();

  // Interior vs frontier rows (global row ids).
  for (index_t lr = 0; lr < re - rb; ++lr) {
    bool interior = true;
    const index_t p0 = hs.local.row_ptr[static_cast<usize>(lr)];
    const index_t p1 = hs.local.row_ptr[static_cast<usize>(lr) + 1];
    for (index_t p = p0; p < p1; ++p) {
      const index_t c = hs.local.col_idx[static_cast<usize>(p)];
      if (c < rb || c >= re) {
        interior = false;
        break;
      }
    }
    if (interior) {
      hs.interior.push_back(rb + lr);
      hs.interior_nnz += p1 - p0;
    } else {
      hs.frontier.push_back(rb + lr);
      hs.frontier_nnz += p1 - p0;
    }
  }
}

/// Common tail of the two sharding entry points: move or upload the local
/// blocks, allocate the exchange state, and swap the request lists.  When
/// `locals` is non-null the blocks are adopted as-is (values already on
/// device); otherwise each HostShard's full local CSR uploads over the
/// owning device's link.
ShardedCsr build_sharded(device::DeviceGroup& group, RowPartition part,
                         index_t cols, std::vector<HostShard> host,
                         std::vector<DeviceCsr>* locals) {
  ShardedCsr out;
  out.group = &group;
  out.rows = part.rows;
  out.cols = cols;
  out.part = std::move(part);
  const auto parts = static_cast<index_t>(group.size());

  out.shards.reserve(static_cast<usize>(parts));
  for (index_t d = 0; d < parts; ++d) {
    device::DeviceContext& ctx = group.device(static_cast<usize>(d));
    HostShard& hs = host[static_cast<usize>(d)];
    DeviceCsrShard sh;
    sh.device = d;
    sh.row_begin = out.part.begin(d);
    sh.row_end = out.part.end(d);
    sh.local = locals != nullptr ? std::move((*locals)[static_cast<usize>(d)])
                                 : DeviceCsr(ctx, hs.local);
    out.nnz += sh.local.nnz();
    sh.halo = std::move(hs.halo);
    sh.halo_peer_begin = std::move(hs.halo_peer_begin);
    sh.interior_rows = std::move(hs.interior);
    sh.frontier_rows = std::move(hs.frontier);
    sh.interior_nnz = hs.interior_nnz;
    sh.frontier_nnz = hs.frontier_nnz;
    sh.x_replica = device::DeviceBuffer<real>(
        ctx, static_cast<usize>(out.cols));
    sh.halo_idx = device::DeviceBuffer<index_t>(
        ctx, std::span<const index_t>(sh.halo));
    sh.halo_vals = device::DeviceBuffer<real>(ctx, sh.halo.size());
    sh.interior_idx = device::DeviceBuffer<index_t>(
        ctx, std::span<const index_t>(sh.interior_rows));
    sh.frontier_idx = device::DeviceBuffer<index_t>(
        ctx, std::span<const index_t>(sh.frontier_rows));
    sh.y_local = device::DeviceBuffer<real>(
        ctx, static_cast<usize>(sh.rows()));
    out.shards.push_back(std::move(sh));
  }
  for (index_t e = 0; e < parts; ++e) {
    device::DeviceContext& ctx = group.device(static_cast<usize>(e));
    DeviceCsrShard& se = out.shards[static_cast<usize>(e)];
    std::vector<index_t> requests;
    se.send_begin.assign(static_cast<usize>(parts) + 1, 0);
    for (index_t d = 0; d < parts; ++d) {
      se.send_begin[static_cast<usize>(d)] = requests.size();
      if (d == e) continue;
      const DeviceCsrShard& sd = out.shards[static_cast<usize>(d)];
      const usize o0 = sd.halo_peer_begin[static_cast<usize>(e)];
      const usize o1 = sd.halo_peer_begin[static_cast<usize>(e) + 1];
      requests.insert(requests.end(), sd.halo.begin() + o0,
                      sd.halo.begin() + o1);
    }
    se.send_begin[static_cast<usize>(parts)] = requests.size();
    if (!requests.empty()) {
      se.send_idx = device::DeviceBuffer<index_t>(
          ctx, std::span<const index_t>(requests));
      se.send_buf = device::DeviceBuffer<real>(ctx, requests.size());
    }
  }
  out.executors.reserve(static_cast<usize>(parts));
  for (index_t d = 0; d < parts; ++d) {
    out.executors.push_back(std::make_unique<PipelineExecutor>(
        group.device(static_cast<usize>(d)), 2));
  }
  return out;
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

  // Host-side pass: slice the local row blocks, then classify.
  std::vector<HostShard> host(static_cast<usize>(parts));
  for (index_t d = 0; d < parts; ++d) {
    HostShard& hs = host[static_cast<usize>(d)];
    const index_t rb = part.begin(d);
    const index_t re = part.end(d);
    const index_t e0 = a.row_ptr[static_cast<usize>(rb)];
    const index_t e1 = a.row_ptr[static_cast<usize>(re)];
    hs.local.rows = re - rb;
    hs.local.cols = a.cols;
    hs.local.row_ptr.resize(static_cast<usize>(re - rb) + 1);
    for (index_t r = rb; r <= re; ++r) {
      hs.local.row_ptr[static_cast<usize>(r - rb)] =
          a.row_ptr[static_cast<usize>(r)] - e0;
    }
    hs.local.col_idx.assign(a.col_idx.begin() + e0, a.col_idx.begin() + e1);
    hs.local.values.assign(a.values.begin() + e0, a.values.begin() + e1);
    classify_shard(hs, part, rb, re);
  }
  return build_sharded(group, std::move(part), a.cols, std::move(host),
                       nullptr);
}

ShardedCsr shard_device_locals(device::DeviceGroup& group,
                               const RowPartition& part,
                               std::vector<DeviceCsr> locals,
                               const std::vector<Csr>& structure) {
  const auto parts = static_cast<index_t>(group.size());
  FASTSC_CHECK(part.parts == parts &&
                   locals.size() == static_cast<usize>(parts) &&
                   structure.size() == static_cast<usize>(parts),
               "shard_device_locals needs one local block per device");
  std::vector<HostShard> host(static_cast<usize>(parts));
  for (index_t d = 0; d < parts; ++d) {
    HostShard& hs = host[static_cast<usize>(d)];
    const sparse::Csr& st = structure[static_cast<usize>(d)];
    FASTSC_CHECK(st.rows == part.size(d) &&
                     locals[static_cast<usize>(d)].rows == part.size(d),
                 "local block shape disagrees with the partition");
    hs.local.rows = st.rows;
    hs.local.cols = st.cols;
    hs.local.row_ptr = st.row_ptr;
    hs.local.col_idx = st.col_idx;
    classify_shard(hs, part, part.begin(d), part.end(d));
  }
  // The sharded operator is square (sharded_csrmv shares the row partition
  // between x and y), so the global column count is the partition's rows.
  return build_sharded(group, part, part.rows, std::move(host), &locals);
}

namespace {

/// Per-row CSR multiply over a device row list, writing the local y
/// segment.  The accumulation loop is entry-for-entry identical to
/// device_csrmv, which is what makes the sharded result bitwise equal to
/// the single-device kernel.
void rowlist_csrmv(device::DeviceContext& ctx, DeviceCsrShard& sh,
                   const device::DeviceBuffer<index_t>& rows_idx,
                   index_t nnz_cost, const char* site) {
  const auto n = static_cast<index_t>(rows_idx.size());
  const index_t* rlist = rows_idx.data();
  const index_t* row_ptr = sh.local.row_ptr.data();
  const index_t* col_idx = sh.local.col_idx.data();
  const CsrValuesView values = sh.local.values_view();
  const real* sc = sh.fused_scale.size() != 0 ? sh.fused_scale.data() : nullptr;
  // Narrow rungs stream x at the staging width straight from the packed
  // replica; load-widening is exact, so the operand is bitwise the fp64
  // value the widened replica would hold.
  const bool xnarrow = sh.stage_precision != Precision::kFp64;
  const ConstVecView xq(sh.x_narrow.data(), sh.stage_precision);
  const real* x = sh.x_replica.data();
  real* yl = sh.y_local.data();
  const index_t rb = sh.row_begin;
  const double nnzd = static_cast<double>(nnz_cost);
  const double bw =
      static_cast<double>(bytes_per_scalar(sh.local.value_precision));
  const double bx =
      xnarrow ? static_cast<double>(bytes_per_scalar(sh.stage_precision))
              : static_cast<double>(sizeof(real));
  const double read_bytes =
      nnzd * (bw + bx + sizeof(index_t)) +
      (sc != nullptr ? 2.0 * n * sizeof(real) : 0.0);
  device::LaunchConfig cfg =
      device::tagged(site, (sc != nullptr ? 3.0 : 2.0) * nnzd, read_bytes,
                     static_cast<double>(n) * sizeof(real));
  cfg.bytes_per_scalar = (nnzd * (bw + bx) + n * static_cast<double>(sizeof(real))) /
                         std::max(2.0 * nnzd + n, 1.0);
  cfg.modeled_seconds = ctx.modeled_kernel_seconds(read_bytes);
  device::launch(
      ctx, n,
      [=](index_t i) {
        const index_t gr = rlist[i];
        const index_t lr = gr - rb;
        real acc = 0;
        for (index_t p = row_ptr[lr]; p < row_ptr[lr + 1]; ++p) {
          const index_t c = col_idx[p];
          // Entry-for-entry the same accumulation as device_csrmv_mp: the
          // fused x term multiplies scale into x before the value product.
          const real xv = xnarrow ? xq.load(static_cast<usize>(c)) : x[c];
          acc += values[p] * (sc != nullptr ? sc[c] * xv : xv);
        }
        yl[lr] = sc != nullptr ? sc[gr] * acc : acc;
      },
      cfg);
}

/// Drain every device's executor before letting any error escape.  add()
/// enqueues eagerly, so once the add-loops finish all P devices' nodes are
/// in flight holding pointers into the caller's frame (x_ready, send_ready,
/// the staging buffers); unwinding past a live stream is a use-after-free.
/// Event records fire even after a sticky stream error, so draining the
/// surviving executors after a fault cannot deadlock.
void run_all(ShardedCsr& a) {
  std::exception_ptr first;
  for (auto& ex : a.executors) {
    try {
      ex->run();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace

void set_sharded_stage_precision(ShardedCsr& a, Precision p) {
  FASTSC_CHECK(a.group != nullptr,
               "set_sharded_stage_precision on an empty ShardedCsr");
  const usize w = bytes_per_scalar(p);
  for (usize d = 0; d < a.shards.size(); ++d) {
    DeviceCsrShard& sh = a.shards[d];
    sh.stage_precision = p;
    if (p == Precision::kFp64) continue;
    device::DeviceContext& ctx = a.group->device(d);
    const auto rows = static_cast<usize>(sh.rows());
    const auto cols = static_cast<usize>(a.cols);
    if (sh.x_narrow.size() < cols * w) {
      sh.x_narrow = device::DeviceBuffer<unsigned char>(ctx, cols * w);
    }
    if (sh.y_stage.size() < rows * w) {
      sh.y_stage = device::DeviceBuffer<unsigned char>(ctx, rows * w);
    }
    if (sh.halo_stage.size() < sh.halo.size() * w && !sh.halo.empty()) {
      sh.halo_stage =
          device::DeviceBuffer<unsigned char>(ctx, sh.halo.size() * w);
    }
    if (sh.send_stage.size() < sh.send_idx.size() * w &&
        sh.send_idx.size() != 0) {
      sh.send_stage =
          device::DeviceBuffer<unsigned char>(ctx, sh.send_idx.size() * w);
    }
  }
}

void demote_sharded_values(ShardedCsr& a, Precision p) {
  FASTSC_CHECK(a.group != nullptr,
               "demote_sharded_values on an empty ShardedCsr");
  for (usize d = 0; d < a.shards.size(); ++d) {
    demote_csr_values(a.group->device(d), a.shards[d].local, p);
  }
}

void set_sharded_fused_scale(
    ShardedCsr& a, std::vector<device::DeviceBuffer<real>> replicas) {
  FASTSC_CHECK(replicas.size() == a.shards.size(),
               "fused scale needs one replica per device");
  for (usize d = 0; d < a.shards.size(); ++d) {
    FASTSC_CHECK(static_cast<index_t>(replicas[d].size()) == a.cols,
                 "fused scale replica must cover every column");
    a.shards[d].fused_scale = std::move(replicas[d]);
  }
}

void set_sharded_fused_scale(ShardedCsr& a, const real* scale) {
  FASTSC_CHECK(a.group != nullptr,
               "set_sharded_fused_scale on an empty ShardedCsr");
  std::vector<device::DeviceBuffer<real>> replicas;
  replicas.reserve(a.shards.size());
  for (usize d = 0; d < a.shards.size(); ++d) {
    replicas.emplace_back(
        a.group->device(d),
        std::span<const real>(scale, static_cast<usize>(a.cols)));
  }
  set_sharded_fused_scale(a, std::move(replicas));
}

void sharded_csrmv(ShardedCsr& a, const real* x, real* y) {
  FASTSC_CHECK(a.group != nullptr, "sharded_csrmv on an empty ShardedCsr");
  device::DeviceGroup& group = *a.group;
  const usize P = a.shards.size();
  if (a.rows <= 0) return;
  const Precision prec = a.shards.empty() ? Precision::kFp64
                                          : a.shards[0].stage_precision;
  const auto w = static_cast<usize>(bytes_per_scalar(prec));
  const bool narrow = prec != Precision::kFp64;

  // Phase A: every device uploads its own x segment and gathers the values
  // its peers requested.  The phase barrier below makes the send buffers
  // stable before any peer copy reads them.  At a narrow staging precision
  // the upload moves packed scalars straight into the narrow full-column
  // replica, so every device reads exactly quantize(x[i]) via exact
  // load-widening (the fp64 x_replica is untouched on narrow rungs).
  std::vector<std::vector<unsigned char>> xpack(narrow ? P : 0);
  std::vector<PipelineExecutor::NodeId> xnode(P), gnode(P);
  for (usize d = 0; d < P; ++d) {
    PipelineExecutor& ex = *a.executors[d];
    ex.reset();
    if (!narrow) {
      xnode[d] = ex.add(
          PipelineExecutor::kTransferStream, "shard.x_upload",
          [&a, &group, x, d] {
            DeviceCsrShard& sh = a.shards[d];
            const index_t b = sh.row_begin;
            device::copy_h2d(group.device(d), sh.x_replica.data() + b, x + b,
                             static_cast<usize>(sh.rows()));
          });
    } else {
      // Packed upload lands directly in this device's slice of the narrow
      // full-column replica — no widening kernel; the SpMV kernels widen on
      // load, which is exact.
      xnode[d] = ex.add(
          PipelineExecutor::kTransferStream, "shard.x_upload",
          [&a, &group, &xpack, x, d, prec, w] {
            DeviceCsrShard& sh = a.shards[d];
            const auto rows = static_cast<usize>(sh.rows());
            xpack[d].resize(rows * w);
            pack_scalars(x + sh.row_begin, rows, prec, xpack[d].data());
            device::copy_h2d(
                group.device(d),
                sh.x_narrow.data() + static_cast<usize>(sh.row_begin) * w,
                xpack[d].data(), rows * w);
          });
    }
    gnode[d] = ex.add(
        PipelineExecutor::kComputeStream, "shard.halo_gather",
        [&a, &group, d, prec, w, narrow] {
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          // One launch over the concatenated request lists: per-peer
          // launches would pay N-1 launch latencies every wave.
          const usize cnt = sh.send_idx.size();
          if (cnt == 0) return;
          const index_t* idx = sh.send_idx.data();
          const double c = static_cast<double>(cnt);
          const double bx = narrow ? static_cast<double>(w) : sizeof(real);
          device::LaunchConfig cfg = device::tagged(
              "spmv.halo_gather", c, c * (bx + sizeof(index_t)),
              c * static_cast<double>(w));
          cfg.bytes_per_scalar = static_cast<double>(w);
          cfg.modeled_seconds = ctx.modeled_kernel_seconds(
              c * (bx + static_cast<double>(w)));
          if (!narrow) {
            const real* xr = sh.x_replica.data();
            real* buf = sh.send_buf.data();
            device::launch(
                ctx, static_cast<index_t>(cnt),
                [=](index_t i) { buf[i] = xr[idx[i]]; }, cfg);
          } else {
            // Gather the narrow replica bytes into the send staging; the
            // load/store round-trip re-quantizes an already-quantized value,
            // which is the identity, so the peer receives bitwise the same
            // bytes the owner's upload landed.
            const ConstVecView xn(sh.x_narrow.data(), prec);
            const VecView buf(sh.send_stage.data(), prec);
            device::launch(
                ctx, static_cast<index_t>(cnt),
                [=](index_t i) {
                  buf.store(static_cast<usize>(i),
                            xn.load(static_cast<usize>(idx[i])));
                },
                cfg);
          }
        },
        {xnode[d]});
  }
  run_all(a);
  std::vector<double> x_ready(P), send_ready(P);
  for (usize d = 0; d < P; ++d) {
    x_ready[d] = a.executors[d]->done(xnode[d]).virtual_time();
    send_ready[d] = a.executors[d]->done(gnode[d]).virtual_time();
  }

  // Phase B: halo exchange on the transfer stream while interior rows
  // multiply on the compute stream; frontier rows wait for the scatter.
  for (usize d = 0; d < P; ++d) {
    PipelineExecutor& ex = *a.executors[d];
    ex.reset();
    // Interior first on the compute stream so the stream FIFO does not park
    // it behind the scatter's wait for the exchange.
    const auto inode = ex.add(
        PipelineExecutor::kComputeStream, "shard.spmv_interior",
        [&a, &group, &x_ready, d] {
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          ctx.sync_current_clock_to(x_ready[d]);
          rowlist_csrmv(ctx, sh, sh.interior_idx, sh.interior_nnz,
                        "spmv.shard_interior");
        });
    const auto hnode = ex.add(
        PipelineExecutor::kTransferStream, "shard.halo_exchange",
        [&a, &group, &send_ready, d, P, w, narrow] {
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          for (usize e = 0; e < P; ++e) {
            if (e == d) continue;
            const usize o0 = sh.halo_peer_begin[e];
            const usize cnt = sh.halo_peer_begin[e + 1] - o0;
            if (cnt == 0) continue;
            // The peer's gather must have retired before its buffer is
            // read; floor this link's clock to that completion time.
            ctx.sync_current_clock_to(send_ready[e]);
            const DeviceCsrShard& pe = a.shards[e];
            if (!narrow) {
              group.copy_peer(e, d, pe.send_buf.data() + pe.send_begin[d],
                              sh.halo_vals.data() + o0, cnt, "d2d.halo");
            } else {
              group.copy_peer(e, d,
                              pe.send_stage.data() + w * pe.send_begin[d],
                              sh.halo_stage.data() + w * o0, cnt * w,
                              "d2d.halo");
            }
          }
        });
    const auto snode = ex.add(
        PipelineExecutor::kComputeStream, "shard.halo_scatter",
        [&a, &group, d, prec, w, narrow] {
          DeviceCsrShard& sh = a.shards[d];
          const usize cnt = sh.halo.size();
          if (cnt == 0) return;
          const index_t* idx = sh.halo_idx.data();
          const double c = static_cast<double>(cnt);
          const double bo = narrow ? static_cast<double>(w) : sizeof(real);
          device::LaunchConfig cfg = device::tagged(
              "spmv.halo_scatter",
              c, c * (static_cast<double>(w) + sizeof(index_t)), c * bo);
          cfg.bytes_per_scalar = static_cast<double>(w);
          cfg.modeled_seconds = group.device(d).modeled_kernel_seconds(
              c * (static_cast<double>(w) + bo));
          if (!narrow) {
            real* xr = sh.x_replica.data();
            const real* vals = sh.halo_vals.data();
            device::launch(
                group.device(d), static_cast<index_t>(cnt),
                [=](index_t i) { xr[idx[i]] = vals[i]; }, cfg);
          } else {
            // Scatter the received narrow bytes into the halo slots of the
            // narrow replica: values were quantized once at the owner's
            // upload, so the load/store round-trip is the identity and the
            // slot lands bitwise the same bytes the owner holds.
            const ConstVecView vals(sh.halo_stage.data(), prec);
            const VecView xn(sh.x_narrow.data(), prec);
            device::launch(
                group.device(d), static_cast<index_t>(cnt),
                [=](index_t i) {
                  xn.store(static_cast<usize>(idx[i]),
                           vals.load(static_cast<usize>(i)));
                },
                cfg);
          }
        },
        {hnode});
    const auto fnode = ex.add(
        PipelineExecutor::kComputeStream, "shard.spmv_frontier",
        [&a, &group, d] {
          DeviceCsrShard& sh = a.shards[d];
          rowlist_csrmv(group.device(d), sh, sh.frontier_idx,
                        sh.frontier_nnz, "spmv.shard_frontier");
        },
        {snode});
    if (!narrow) {
      ex.add(
          PipelineExecutor::kTransferStream, "shard.y_download",
          [&a, &group, y, d] {
            DeviceCsrShard& sh = a.shards[d];
            device::copy_d2h(group.device(d), y + sh.row_begin,
                             sh.y_local.data(), static_cast<usize>(sh.rows()));
          },
          {inode, fnode});
    } else {
      // Quantize y on device, move the packed bytes over PCIe, widen on the
      // host — the downlink twin of the x staging above.
      const auto pnode = ex.add(
          PipelineExecutor::kComputeStream, "shard.y_pack",
          [&a, &group, d, prec, w] {
            DeviceCsrShard& sh = a.shards[d];
            const auto rows = static_cast<index_t>(sh.rows());
            if (rows == 0) return;
            const real* yl = sh.y_local.data();
            const VecView v(sh.y_stage.data(), prec);
            const double c = static_cast<double>(rows);
            device::LaunchConfig cfg = device::tagged(
                "precision.stage", c, c * sizeof(real),
                c * static_cast<double>(w));
            cfg.bytes_per_scalar = static_cast<double>(w);
            cfg.modeled_seconds = group.device(d).modeled_kernel_seconds(
                c * (sizeof(real) + static_cast<double>(w)));
            device::launch(
                group.device(d), rows,
                [=](index_t i) { v.store(static_cast<usize>(i), yl[i]); },
                cfg);
          },
          {inode, fnode});
      ex.add(
          PipelineExecutor::kTransferStream, "shard.y_download",
          [&a, &group, y, d, prec, w] {
            DeviceCsrShard& sh = a.shards[d];
            const auto rows = static_cast<usize>(sh.rows());
            std::vector<unsigned char> packed(rows * w);
            device::copy_d2h(group.device(d), packed.data(),
                             sh.y_stage.data(), rows * w);
            unpack_scalars(packed.data(), rows, prec, y + sh.row_begin);
          },
          {pnode});
    }
  }
  run_all(a);
  for (usize d = 0; d < P; ++d) a.executors[d]->reset();
}

void sharded_csrmm(ShardedCsr& a, const real* x, real* y, index_t nvec) {
  FASTSC_CHECK(a.group != nullptr, "sharded_csrmm on an empty ShardedCsr");
  FASTSC_CHECK(nvec >= 0, "csrmm vector count must be non-negative");
  if (nvec == 0 || a.rows <= 0) return;
  device::DeviceGroup& group = *a.group;
  const usize P = a.shards.size();
  const index_t cols = a.cols;
  const index_t rows = a.rows;

  // Per-call block buffers (the differential suite's workload; the RCI hot
  // path is the single-vector sharded_csrmv above).  Block layouts mirror
  // device_csrmm: vector j occupies x_block[j*cols ..] / y_block[j*lrows..].
  struct BlockBufs {
    device::DeviceBuffer<real> x_block;
    device::DeviceBuffer<real> y_block;
    device::DeviceBuffer<real> halo_vals;
    /// Gather staging over the concatenated request lists, nvec values per
    /// requested element (elem-major like the csrmv layout).
    device::DeviceBuffer<real> send_buf;
  };
  std::vector<BlockBufs> bufs(P);
  for (usize d = 0; d < P; ++d) {
    device::DeviceContext& ctx = group.device(d);
    DeviceCsrShard& sh = a.shards[d];
    BlockBufs& b = bufs[d];
    b.x_block = device::DeviceBuffer<real>(
        ctx, static_cast<usize>(nvec) * static_cast<usize>(cols));
    b.y_block = device::DeviceBuffer<real>(
        ctx, static_cast<usize>(nvec) * static_cast<usize>(sh.rows()));
    b.halo_vals = device::DeviceBuffer<real>(
        ctx, static_cast<usize>(nvec) * sh.halo.size());
    if (sh.send_idx.size() != 0) {
      b.send_buf = device::DeviceBuffer<real>(
          ctx, static_cast<usize>(nvec) * sh.send_idx.size());
    }
  }

  std::vector<PipelineExecutor::NodeId> unode(P), gnode(P);
  for (usize d = 0; d < P; ++d) {
    PipelineExecutor& ex = *a.executors[d];
    ex.reset();
    unode[d] = ex.add(
        PipelineExecutor::kTransferStream, "shard.xblk_upload",
        [&a, &group, &bufs, x, d, nvec, cols] {
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          for (index_t j = 0; j < nvec; ++j) {
            device::copy_h2d(ctx, bufs[d].x_block.data() + j * cols +
                                      sh.row_begin,
                             x + j * cols + sh.row_begin,
                             static_cast<usize>(sh.rows()));
          }
        });
    gnode[d] = ex.add(
        PipelineExecutor::kComputeStream, "shard.halo_gather",
        [&a, &group, &bufs, d, nvec, cols] {
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          const usize cnt = sh.send_idx.size();
          if (cnt == 0) return;
          const index_t* idx = sh.send_idx.data();
          const real* xb = bufs[d].x_block.data();
          real* buf = bufs[d].send_buf.data();
          const auto n = static_cast<index_t>(cnt) * nvec;
          const double c = static_cast<double>(n);
          device::LaunchConfig cfg = device::tagged(
              "spmv.halo_gather", c, c * (sizeof(real) + sizeof(index_t)),
              c * sizeof(real));
          cfg.modeled_seconds =
              ctx.modeled_kernel_seconds(c * 2.0 * sizeof(real));
          device::launch(
              ctx, n,
              [=](index_t i) {
                const index_t elem = i / nvec;
                const index_t j = i % nvec;
                buf[i] = xb[j * cols + idx[elem]];
              },
              cfg);
        },
        {unode[d]});
  }
  run_all(a);
  std::vector<double> send_ready(P);
  for (usize d = 0; d < P; ++d) {
    send_ready[d] = a.executors[d]->done(gnode[d]).virtual_time();
  }

  for (usize d = 0; d < P; ++d) {
    PipelineExecutor& ex = *a.executors[d];
    ex.reset();
    const auto hnode = ex.add(
        PipelineExecutor::kTransferStream, "shard.halo_exchange",
        [&a, &group, &bufs, &send_ready, d, P, nvec] {
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          for (usize e = 0; e < P; ++e) {
            if (e == d) continue;
            const usize o0 = sh.halo_peer_begin[e];
            const usize cnt = sh.halo_peer_begin[e + 1] - o0;
            if (cnt == 0) continue;
            ctx.sync_current_clock_to(send_ready[e]);
            const DeviceCsrShard& pe = a.shards[e];
            group.copy_peer(e, d,
                            bufs[e].send_buf.data() +
                                static_cast<usize>(nvec) * pe.send_begin[d],
                            bufs[d].halo_vals.data() +
                                static_cast<usize>(nvec) * o0,
                            static_cast<usize>(nvec) * cnt, "d2d.halo");
          }
        });
    const auto snode = ex.add(
        PipelineExecutor::kComputeStream, "shard.halo_scatter",
        [&a, &group, &bufs, d, nvec, cols] {
          DeviceCsrShard& sh = a.shards[d];
          const usize cnt = sh.halo.size();
          if (cnt == 0) return;
          const index_t* idx = sh.halo_idx.data();
          const real* vals = bufs[d].halo_vals.data();
          real* xb = bufs[d].x_block.data();
          const auto n = static_cast<index_t>(cnt) * nvec;
          const double c = static_cast<double>(n);
          device::LaunchConfig cfg = device::tagged(
              "spmv.halo_scatter", c, c * (sizeof(real) + sizeof(index_t)),
              c * sizeof(real));
          cfg.modeled_seconds =
              group.device(d).modeled_kernel_seconds(c * 2.0 * sizeof(real));
          device::launch(
              group.device(d), n,
              [=](index_t i) {
                const index_t elem = i / nvec;
                const index_t j = i % nvec;
                xb[j * cols + idx[elem]] = vals[i];
              },
              cfg);
        },
        {hnode});
    const auto cnode = ex.add(
        PipelineExecutor::kComputeStream, "shard.spmm",
        [&a, &group, &bufs, d, nvec] {
          // All rows wait for the scatter: the block sweep amortizes the A
          // read across vectors, so splitting interior/frontier would
          // re-sweep the matrix (device_csrmm makes the same trade).
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          const index_t lrows = sh.rows();
          const index_t* row_ptr = sh.local.row_ptr.data();
          const index_t* col_idx = sh.local.col_idx.data();
          const CsrValuesView values = sh.local.values_view();
          const real* sc =
              sh.fused_scale.size() != 0 ? sh.fused_scale.data() : nullptr;
          const index_t rb = sh.row_begin;
          const real* xb = bufs[d].x_block.data();
          real* yb = bufs[d].y_block.data();
          const index_t ncols = sh.local.cols;
          const double nnzd = static_cast<double>(sh.local.nnz());
          const auto bw =
              static_cast<double>(bytes_per_scalar(sh.local.value_precision));
          device::LaunchConfig cfg = device::tagged(
              "spmv.shard_spmm", (sc != nullptr ? 3.0 : 2.0) * nnzd * nvec,
              nnzd * (bw + sizeof(index_t)) +
                  nnzd * nvec * static_cast<double>(sizeof(real)),
              static_cast<double>(lrows) * nvec * sizeof(real));
          cfg.bytes_per_scalar =
              (nnzd * bw + nnzd * nvec * 8.0 +
               static_cast<double>(lrows) * nvec * 8.0) /
              (nnzd + nnzd * nvec + static_cast<double>(lrows) * nvec);
          cfg.modeled_seconds = ctx.modeled_kernel_seconds(
              nnzd * nvec * 2.0 * sizeof(real));
          device::launch(
              ctx, lrows,
              [=](index_t lr) {
                for (index_t j = 0; j < nvec; ++j) {
                  const real* xj = xb + j * ncols;
                  real acc = 0;
                  for (index_t p = row_ptr[lr]; p < row_ptr[lr + 1]; ++p) {
                    const index_t c = col_idx[p];
                    acc += values[static_cast<usize>(p)] *
                           (sc != nullptr ? sc[c] * xj[c] : xj[c]);
                  }
                  yb[j * lrows + lr] =
                      sc != nullptr ? sc[rb + lr] * acc : acc;
                }
              },
              cfg);
        },
        {snode});
    ex.add(
        PipelineExecutor::kTransferStream, "shard.yblk_download",
        [&a, &group, &bufs, y, d, nvec, rows] {
          DeviceCsrShard& sh = a.shards[d];
          device::DeviceContext& ctx = group.device(d);
          const index_t lrows = sh.rows();
          for (index_t j = 0; j < nvec; ++j) {
            device::copy_d2h(ctx, y + j * rows + sh.row_begin,
                             bufs[d].y_block.data() + j * lrows,
                             static_cast<usize>(lrows));
          }
        },
        {cnode});
  }
  run_all(a);
  for (usize d = 0; d < P; ++d) a.executors[d]->reset();
}

}  // namespace fastsc::sparse
