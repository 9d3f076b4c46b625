// DeviceGroup and row-sharding property tests: partition cover/disjointness,
// the merge-path nnz balance bound, exact halo index sets, peer-copy
// semantics, and the counters/attribution conservation rollup.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "data/powerlaw.h"
#include "device/device_group.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "sparse/convert.h"
#include "sparse/shard.h"

namespace fastsc {
namespace {

using device::DeviceContext;
using device::DeviceCounters;
using device::DeviceGroup;
using sparse::Csr;
using sparse::RowPartition;
using sparse::make_row_partition;

/// A CSR with the given per-row nnz pattern (columns cycle over the width).
Csr csr_from_row_nnz(const std::vector<index_t>& row_nnz, index_t cols) {
  Csr a(static_cast<index_t>(row_nnz.size()), cols);
  for (usize r = 0; r < row_nnz.size(); ++r) {
    a.row_ptr[r + 1] = a.row_ptr[r] + row_nnz[r];
    for (index_t j = 0; j < row_nnz[r]; ++j) {
      a.col_idx.push_back((static_cast<index_t>(r) + j) % cols);
      a.values.push_back(1.0 + static_cast<real>(j));
    }
  }
  return a;
}

void check_partition_invariants(const RowPartition& part, index_t rows,
                                index_t parts) {
  ASSERT_EQ(part.cuts.size(), static_cast<usize>(parts) + 1);
  EXPECT_EQ(part.cuts.front(), 0);
  EXPECT_EQ(part.cuts.back(), rows);
  for (index_t p = 0; p < parts; ++p) {
    EXPECT_LE(part.begin(p), part.end(p));  // disjoint, ordered
  }
  // Cover: the concatenation of [begin, end) ranges is exactly [0, rows).
  index_t covered = 0;
  for (index_t p = 0; p < parts; ++p) {
    EXPECT_EQ(part.begin(p), covered);
    covered += part.size(p);
  }
  EXPECT_EQ(covered, rows);
  // owner() agrees with the ranges.
  for (index_t r = 0; r < rows; ++r) {
    const index_t p = part.owner(r);
    EXPECT_GE(r, part.begin(p));
    EXPECT_LT(r, part.end(p));
  }
}

/// The whole-row merge-path bound (shard.h): with align == 1 every part
/// holds at most the even merge-path share plus one boundary row.
void check_nnz_bound(const Csr& a, index_t parts) {
  const RowPartition part = make_row_partition(a.row_ptr.data(), a.rows, parts);
  check_partition_invariants(part, a.rows, parts);
  index_t max_row = 0;
  for (index_t r = 0; r < a.rows; ++r) max_row = std::max(max_row, a.row_nnz(r));
  const index_t share =
      (a.rows + a.nnz() + parts - 1) / parts;  // ceil((rows + nnz) / parts)
  index_t max_part = 0;
  for (index_t p = 0; p < parts; ++p) {
    const index_t nnz_p = a.row_ptr[static_cast<usize>(part.end(p))] -
                          a.row_ptr[static_cast<usize>(part.begin(p))];
    max_part = std::max(max_part, nnz_p);
    EXPECT_LE(nnz_p, share + max_row) << "part " << p << " of " << parts;
  }
  EXPECT_EQ(part.max_part_nnz, max_part);
  EXPECT_EQ(part.max_row_nnz, max_row);
}

TEST(RowPartition, CoversAndDisjointAcrossShapes) {
  for (const index_t rows : {1, 2, 7, 64, 1000}) {
    for (const index_t parts : {1, 2, 3, 8}) {
      std::vector<index_t> nnz(static_cast<usize>(rows));
      for (usize r = 0; r < nnz.size(); ++r) {
        nnz[r] = static_cast<index_t>(r % 5);
      }
      const Csr a = csr_from_row_nnz(nnz, std::max<index_t>(rows, 5));
      const RowPartition part =
          make_row_partition(a.row_ptr.data(), rows, parts);
      check_partition_invariants(part, rows, parts);
    }
  }
}

TEST(RowPartition, MorePartsThanRows) {
  const Csr a = csr_from_row_nnz({3, 1, 2}, 4);
  const RowPartition part = make_row_partition(a.row_ptr.data(), a.rows, 8);
  check_partition_invariants(part, a.rows, 8);
}

TEST(RowPartition, NnzBoundUniform) {
  std::vector<index_t> nnz(500, 4);
  const Csr a = csr_from_row_nnz(nnz, 500);
  for (const index_t parts : {2, 3, 4, 7, 8}) check_nnz_bound(a, parts);
}

TEST(RowPartition, NnzBoundHubRow) {
  // One hub row carrying half the entries: the bound must still hold, and
  // the hub row must be owned whole by exactly one part.
  std::vector<index_t> nnz(200, 2);
  nnz[57] = 400;
  const Csr a = csr_from_row_nnz(nnz, 600);
  for (const index_t parts : {2, 4, 8}) check_nnz_bound(a, parts);
}

TEST(RowPartition, NnzBoundEmptyRows) {
  // Alternating empty rows plus a fully-empty tail.
  std::vector<index_t> nnz(300, 0);
  for (usize r = 0; r < 150; r += 2) nnz[r] = 5;
  const Csr a = csr_from_row_nnz(nnz, 300);
  for (const index_t parts : {2, 4, 8}) check_nnz_bound(a, parts);
}

TEST(RowPartition, NnzBoundPowerlaw) {
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 800, .avg_degree = 10.0, .seed = 3});
  const Csr a = sparse::coo_to_csr(g.w);
  for (const index_t parts : {2, 4, 8}) check_nnz_bound(a, parts);
}

TEST(RowPartition, AlignedCutsRoundToBlocks) {
  std::vector<index_t> nnz(1000, 3);
  const Csr a = csr_from_row_nnz(nnz, 1000);
  const RowPartition part =
      make_row_partition(a.row_ptr.data(), a.rows, 4, 256);
  check_partition_invariants(part, a.rows, 4);
  for (index_t p = 1; p < 4; ++p) {
    EXPECT_TRUE(part.cuts[static_cast<usize>(p)] % 256 == 0 ||
                part.cuts[static_cast<usize>(p)] == a.rows);
  }
}

TEST(ShardCsr, HaloIsExactlyTheOutOfRangeColumns) {
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 600, .avg_degree = 8.0, .seed = 11});
  const Csr a = sparse::coo_to_csr(g.w);
  DeviceContext root(1);
  DeviceGroup group(root, 4);
  const sparse::ShardedCsr sp = sparse::shard_csr(group, a);
  ASSERT_EQ(sp.shards.size(), 4u);
  for (const sparse::DeviceCsrShard& sh : sp.shards) {
    // Expected halo: the distinct columns referenced by local rows that lie
    // outside the shard's own row range.
    std::set<index_t> expected;
    for (index_t r = sh.row_begin; r < sh.row_end; ++r) {
      for (index_t e = a.row_ptr[static_cast<usize>(r)];
           e < a.row_ptr[static_cast<usize>(r) + 1]; ++e) {
        const index_t c = a.col_idx[static_cast<usize>(e)];
        if (c < sh.row_begin || c >= sh.row_end) expected.insert(c);
      }
    }
    const std::vector<index_t> want(expected.begin(), expected.end());
    EXPECT_EQ(sh.halo, want) << "device " << sh.device;

    // Peer segments: sorted, covering, and each column inside its peer's
    // row range (the own-range segment is empty by construction).
    ASSERT_EQ(sh.halo_peer_begin.size(), sp.shards.size() + 1);
    EXPECT_EQ(sh.halo_peer_begin.front(), 0u);
    EXPECT_EQ(sh.halo_peer_begin.back(), sh.halo.size());
    for (usize e = 0; e < sp.shards.size(); ++e) {
      if (static_cast<index_t>(e) == sh.device) {
        EXPECT_EQ(sh.halo_peer_begin[e], sh.halo_peer_begin[e + 1]);
        continue;
      }
      for (usize i = sh.halo_peer_begin[e]; i < sh.halo_peer_begin[e + 1];
           ++i) {
        EXPECT_GE(sh.halo[i], sp.part.begin(static_cast<index_t>(e)));
        EXPECT_LT(sh.halo[i], sp.part.end(static_cast<index_t>(e)));
      }
    }
  }
}

TEST(DeviceGroup, CopyPeerMovesDataAndMetersDestination) {
  DeviceContext root(1);
  DeviceGroup group(root, 2);
  std::vector<real> host{1.5, -2.0, 3.25, 0.0, 7.0};
  device::DeviceBuffer<real> src(group.device(0),
                                 std::span<const real>(host));
  device::DeviceBuffer<real> dst(group.device(1), host.size());

  const DeviceCounters before = group.device(1).counters_snapshot();
  group.copy_peer(0, 1, src.data(), dst.data(), host.size(), "d2d.halo");
  const DeviceCounters after = group.device(1).counters_snapshot();

  EXPECT_EQ(dst.to_host(), host);
  EXPECT_EQ(after.transfers_d2d - before.transfers_d2d, 1u);
  EXPECT_EQ(after.bytes_d2d - before.bytes_d2d, host.size() * sizeof(real));
  EXPECT_GT(after.modeled_d2d_seconds, before.modeled_d2d_seconds);
  // The D2D leg occupies the destination's link engine: the slice is part
  // of modeled_transfer_seconds, not a separate pool.
  EXPECT_NEAR(after.modeled_transfer_seconds - before.modeled_transfer_seconds,
              after.modeled_d2d_seconds - before.modeled_d2d_seconds, 1e-12);
  // The source context saw no transfer at all.
  EXPECT_EQ(group.device(0).counters_snapshot().transfers_d2d, 0u);
}

TEST(DeviceGroup, BorrowedRootIsTheCallersContext) {
  DeviceContext ctx(3);
  DeviceGroup group(ctx);
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(&group.device(0), &ctx);
  EXPECT_EQ(&group.root(), &ctx);
  EXPECT_EQ(group.device(0).pool().worker_count(), 3u);
  // A group of one makes no peer.
  EXPECT_EQ(ctx.devices().size(), 1u);
  // Work on the group lands on the caller's books, not on a fresh context.
  std::vector<real> host(64, 2.0);
  device::DeviceBuffer<real> buf(group.device(0),
                                 std::span<const real>(host));
  EXPECT_EQ(ctx.counters_snapshot().bytes_h2d, host.size() * sizeof(real));
  EXPECT_EQ(group.rollup_counters().bytes_h2d, host.size() * sizeof(real));
}

TEST(DeviceGroup, CostModelIsInstalledOnEveryDevice) {
  DeviceContext root(1);
  root.set_kernel_cost_model(1e9, 1e-6);
  DeviceGroup group(root, 2);
  for (usize d = 0; d < group.size(); ++d) {
    EXPECT_DOUBLE_EQ(group.device(d).modeled_kernel_seconds(1000),
                     1e-6 + 1000 / 1e9);
  }
  DeviceContext plain(1);
  EXPECT_LT(DeviceGroup(plain).device(0).modeled_kernel_seconds(1000), 0);
}

// Device i >= 1 is the root's peer i: made once, then handed to every later
// group on the root, and running on the root's pool at any worker count.
TEST(DeviceGroup, GroupsOnOneRootShareItsPeersAndPool) {
  for (const usize workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    DeviceContext root(workers);
    DeviceGroup first(root, 3);
    DeviceGroup second(root, 2);
    EXPECT_EQ(&first.device(0), &root);
    EXPECT_EQ(&second.device(0), &root);
    EXPECT_EQ(&first.device(1), &second.device(1));
    EXPECT_EQ(&first.device(1), &root.peer(1));
    EXPECT_EQ(&first.device(2), &root.peer(2));
    for (usize d = 1; d < first.size(); ++d) {
      EXPECT_EQ(&first.device(d).pool(), &root.pool());
    }
    const std::vector<const DeviceContext*> devices = root.devices();
    ASSERT_EQ(devices.size(), 3u);
    EXPECT_EQ(devices[0], &root);
    EXPECT_EQ(devices[1], &root.peer(1));
    EXPECT_EQ(devices[2], &root.peer(2));
  }
}

// Every device of a root's group has the root's settings, whether the
// setter ran before or after the peer was made.
TEST(DeviceGroup, RootSettingsReachEveryPeer) {
  DeviceContext root(1);
  root.set_memory_limit(1 << 20);
  DeviceGroup early(root, 2);  // peer 1 exists before the setters below
  device::TransferModel model;
  model.bandwidth_bytes_per_sec = 3e9;
  root.set_transfer_model(model);
  root.set_transfer_retry({.max_retries = 0, .backoff_seconds = 1e-3});
  root.set_kernel_cost_model(2e9, 3e-6);
  DeviceGroup late(root, 3);
  for (usize d = 0; d < late.size(); ++d) {
    const DeviceContext& dev = late.device(d);
    EXPECT_EQ(dev.memory_limit(), usize{1} << 20);
    EXPECT_DOUBLE_EQ(dev.transfer_model().bandwidth_bytes_per_sec, 3e9);
    EXPECT_EQ(dev.transfer_retry().max_retries, 0);
    EXPECT_DOUBLE_EQ(dev.transfer_retry().backoff_seconds, 1e-3);
    EXPECT_DOUBLE_EQ(dev.modeled_kernel_seconds(1000), 3e-6 + 1000 / 2e9);
  }
}

TEST(DeviceGroup, CopyPeerAbsorbsInjectedTransientFault) {
  fault::FaultPlan plan = fault::FaultPlan::parse("site=d2d.halo,nth=1");
  fault::ArmScope armed(plan);
  DeviceContext root(1);
  DeviceGroup group(root, 2);
  std::vector<real> host{4.0, 5.0, 6.0};
  device::DeviceBuffer<real> src(group.device(0),
                                 std::span<const real>(host));
  device::DeviceBuffer<real> dst(group.device(1), host.size());
  group.copy_peer(0, 1, src.data(), dst.data(), host.size(), "d2d.halo");
  EXPECT_EQ(dst.to_host(), host);
  const DeviceCounters c = group.device(1).counters_snapshot();
  EXPECT_EQ(c.transfer_retries, 1u);
  EXPECT_EQ(c.transfers_d2d, 1u);  // the fault fired before any metering
}

TEST(DeviceGroup, ModelPeerTransferChargesWithoutData) {
  DeviceContext root(1);
  DeviceGroup group(root, 3);
  const double before = group.device(2).counters_snapshot().modeled_d2d_seconds;
  group.model_peer_transfer(0, 2, 1 << 20, "d2d.allreduce");
  const DeviceCounters c = group.device(2).counters_snapshot();
  EXPECT_EQ(c.bytes_d2d, usize{1} << 20);
  EXPECT_EQ(c.transfers_d2d, 1u);
  EXPECT_GT(c.modeled_d2d_seconds, before);
}

TEST(DeviceGroup, D2dObservabilityCountersAccumulate) {
  const std::int64_t t0 = obs::metrics().counter("d2d.transfers").value();
  const std::int64_t b0 = obs::metrics().counter("d2d.bytes").value();
  DeviceContext root(1);
  DeviceGroup group(root, 2);
  group.model_peer_transfer(0, 1, 100, "d2d.allreduce");
  group.model_peer_transfer(1, 0, 50, "d2d.allreduce");
  EXPECT_EQ(obs::metrics().counter("d2d.transfers").value(), t0 + 2);
  EXPECT_EQ(obs::metrics().counter("d2d.bytes").value(), b0 + 150);
}

TEST(DeviceGroup, RollupReconcilesWithPerDeviceCounters) {
  DeviceContext root(1);
  DeviceGroup group(root, 3);
  // Exercise every traffic class: H2D/D2H on each device, real peer copies,
  // modeled peer transfers, and a kernel launch per device.
  std::vector<real> host(1024, 1.0);
  std::vector<device::DeviceBuffer<real>> bufs;
  for (usize d = 0; d < group.size(); ++d) {
    bufs.emplace_back(group.device(d), std::span<const real>(host));
    real* p = bufs.back().data();
    device::launch(
        group.device(d), static_cast<index_t>(host.size()),
        [p](index_t i) { p[i] *= 2; }, device::tagged("test.scale"));
    (void)bufs.back().to_host();
  }
  group.copy_peer(0, 1, bufs[0].data(), bufs[1].data(), host.size(),
                  "d2d.halo");
  group.copy_peer(1, 2, bufs[1].data(), bufs[2].data(), host.size(),
                  "d2d.halo");
  group.model_peer_transfer(2, 0, 4096, "d2d.allreduce");

  DeviceCounters manual;
  for (usize d = 0; d < group.size(); ++d) {
    device::accumulate_counters(manual, group.device(d).counters_snapshot());
  }
  const DeviceCounters rollup = group.rollup_counters();
  EXPECT_EQ(rollup.bytes_h2d, manual.bytes_h2d);
  EXPECT_EQ(rollup.bytes_d2h, manual.bytes_d2h);
  EXPECT_EQ(rollup.bytes_d2d, manual.bytes_d2d);
  EXPECT_EQ(rollup.transfers_h2d, manual.transfers_h2d);
  EXPECT_EQ(rollup.transfers_d2h, manual.transfers_d2h);
  EXPECT_EQ(rollup.transfers_d2d, manual.transfers_d2d);
  EXPECT_DOUBLE_EQ(rollup.modeled_transfer_seconds,
                   manual.modeled_transfer_seconds);
  EXPECT_DOUBLE_EQ(rollup.modeled_d2d_seconds, manual.modeled_d2d_seconds);
  EXPECT_DOUBLE_EQ(rollup.kernel_seconds, manual.kernel_seconds);
  EXPECT_EQ(rollup.kernel_launches, manual.kernel_launches);
  EXPECT_EQ(rollup.total_allocations, manual.total_allocations);
  EXPECT_EQ(rollup.bytes_d2d, 2 * host.size() * sizeof(real) + 4096);

  // Attribution rollup reconciles with the counters: per-site sums account
  // for the same transfers and bytes the counters recorded.
  const obs::SiteStats attr = group.rollup_attribution();
  EXPECT_EQ(attr.transfers_d2d, rollup.transfers_d2d);
  EXPECT_EQ(attr.bytes_d2d, rollup.bytes_d2d);
  EXPECT_EQ(attr.transfers_h2d, rollup.transfers_h2d);
  EXPECT_EQ(attr.transfers_d2h, rollup.transfers_d2h);
  EXPECT_EQ(attr.kernel_launches, rollup.kernel_launches);

  // counters_delta subtracts the traffic fields, including the d2d ones.
  const DeviceCounters zero = device::counters_delta(rollup, rollup);
  EXPECT_EQ(zero.bytes_d2d, 0u);
  EXPECT_EQ(zero.transfers_d2d, 0u);
  EXPECT_DOUBLE_EQ(zero.modeled_d2d_seconds, 0.0);
  EXPECT_DOUBLE_EQ(zero.modeled_transfer_seconds, 0.0);
}

TEST(DeviceGroup, PerDeviceTraceTracksAreDistinct) {
  DeviceContext root(1);
  DeviceGroup group(root, 3);
  EXPECT_EQ(group.device(0).link_tid(), obs::kLinkTid);
  EXPECT_EQ(group.device(0).compute_tid(), obs::kComputeTid);
  std::set<std::uint32_t> tids;
  for (usize d = 0; d < group.size(); ++d) {
    tids.insert(group.device(d).link_tid());
    tids.insert(group.device(d).compute_tid());
    EXPECT_EQ(group.device(d).compute_tid(), group.device(d).link_tid() + 1);
  }
  EXPECT_EQ(tids.size(), 2 * group.size());
}

}  // namespace
}  // namespace fastsc
