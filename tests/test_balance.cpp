#include "sparse/balance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "data/powerlaw.h"
#include "device/algorithms.h"
#include "obs/metrics.h"
#include "sparse/convert.h"
#include "sparse/spmv.h"

namespace fastsc::sparse {
namespace {

Coo random_coo(index_t rows, index_t cols, index_t nnz, Rng& rng) {
  Coo coo(rows, cols);
  for (index_t e = 0; e < nnz; ++e) {
    coo.push(static_cast<index_t>(
                 rng.uniform_index(static_cast<std::uint64_t>(rows))),
             static_cast<index_t>(
                 rng.uniform_index(static_cast<std::uint64_t>(cols))),
             rng.uniform() - 0.5);
  }
  sort_and_merge(coo);
  return coo;
}

/// Every partition must tile the range exactly: monotone boundaries, first
/// and last pinned to the range ends, and every span within the merge-path
/// work bound ceil(M / spans).
void check_partition(const MergePathPartition& part, const index_t* row_ptr,
                     index_t row_begin, index_t row_end, index_t spans) {
  ASSERT_GE(part.spans, 1);
  ASSERT_EQ(part.span_row.size(), static_cast<usize>(part.spans) + 1);
  ASSERT_EQ(part.span_ent.size(), static_cast<usize>(part.spans) + 1);
  EXPECT_EQ(part.span_row.front(), row_begin);
  EXPECT_EQ(part.span_row.back(), row_end);
  EXPECT_EQ(part.span_ent.front(), row_ptr[row_begin]);
  EXPECT_EQ(part.span_ent.back(), row_ptr[row_end]);

  const index_t rows = row_end - row_begin;
  const index_t nnz = row_ptr[row_end] - row_ptr[row_begin];
  const index_t m = rows + nnz;
  const index_t bound = (m + spans - 1) / spans;
  for (index_t s = 0; s < part.spans; ++s) {
    const auto us = static_cast<usize>(s);
    // Disjoint and sorted: boundaries never move backwards.
    EXPECT_LE(part.span_row[us], part.span_row[us + 1]);
    EXPECT_LE(part.span_ent[us], part.span_ent[us + 1]);
    // Each boundary is a valid merge-path coordinate:
    // row_ptr[r] <= e <= row_ptr[r + 1] whenever r < row_end.
    const index_t r = part.span_row[us];
    const index_t e = part.span_ent[us];
    EXPECT_GE(e, row_ptr[r]);
    if (r < row_end) EXPECT_LE(e, row_ptr[r + 1]);
    // Near-equal work: rows consumed + entries consumed <= ceil(M/spans).
    const index_t work = (part.span_row[us + 1] - part.span_row[us]) +
                         (part.span_ent[us + 1] - part.span_ent[us]);
    EXPECT_LE(work, bound) << "span " << s;
  }
}

TEST(MergePathPartition, CoversUniformMatrixExactly) {
  Rng rng(7);
  const Coo coo = random_coo(64, 64, 500, rng);
  const Csr csr = coo_to_csr(coo);
  for (index_t spans : {1, 2, 3, 7, 8, 64}) {
    const MergePathPartition part =
        merge_path_partition(csr.row_ptr.data(), 0, csr.rows, spans);
    check_partition(part, csr.row_ptr.data(), 0, csr.rows, spans);
    EXPECT_EQ(part.nnz(), csr.nnz());
  }
}

TEST(MergePathPartition, HandlesEmptyRows) {
  // row_ptr with leading, interior, and trailing empty rows.
  const std::vector<index_t> row_ptr = {0, 0, 0, 3, 3, 3, 7, 7};
  for (index_t spans : {1, 2, 3, 5}) {
    const MergePathPartition part =
        merge_path_partition(row_ptr.data(), 0, 7, spans);
    check_partition(part, row_ptr.data(), 0, 7, spans);
    EXPECT_EQ(part.nnz(), 7);
  }
}

TEST(MergePathPartition, CutsSingleHubRowAcrossSpans) {
  // One row owns all 1000 entries; a row split gives one worker everything,
  // the merge path slices the hub across every span.
  const std::vector<index_t> row_ptr = {0, 0, 1000, 1000, 1000};
  const index_t spans = 8;
  const MergePathPartition part =
      merge_path_partition(row_ptr.data(), 0, 4, spans);
  check_partition(part, row_ptr.data(), 0, 4, spans);
  EXPECT_EQ(part.nnz(), 1000);
  // Balanced: no span carries more than ceil((4 + 1000) / 8) entries...
  EXPECT_LE(part.max_span_nnz, (4 + 1000 + spans - 1) / spans);
  // ...while the row-chunked baseline gives one worker the whole hub.
  EXPECT_EQ(rowchunk_max_span_nnz(row_ptr.data(), 0, 4, spans), 1000);
}

TEST(MergePathPartition, EmptyRangeAndSubrange) {
  const std::vector<index_t> row_ptr = {0, 2, 5, 5, 9};
  const MergePathPartition empty =
      merge_path_partition(row_ptr.data(), 2, 2, 4);
  EXPECT_EQ(empty.nnz(), 0);
  const MergePathPartition sub = merge_path_partition(row_ptr.data(), 1, 3, 2);
  check_partition(sub, row_ptr.data(), 1, 3, 2);
  EXPECT_EQ(sub.nnz(), 3);
}

TEST(MergePathPartition, BalancedBeatsRowChunkOnPowerlaw) {
  const data::PowerlawGraph graph =
      data::make_powerlaw({.n = 400, .avg_degree = 10.0, .seed = 11});
  const Csr csr = coo_to_csr(graph.w);
  const index_t workers = 8;
  const MergePathPartition part =
      merge_path_partition(csr.row_ptr.data(), 0, csr.rows, workers);
  check_partition(part, csr.row_ptr.data(), 0, csr.rows, workers);
  const index_t chunked =
      rowchunk_max_span_nnz(csr.row_ptr.data(), 0, csr.rows, workers);
  // The hub rows concentrate in the first row chunk; merge path spreads
  // them evenly, so its worst wave must be strictly better.
  EXPECT_LT(part.max_span_nnz, chunked);
}

class BalancedSpmv : public ::testing::TestWithParam<int> {
 protected:
  device::DeviceContext ctx_{static_cast<usize>(GetParam())};
};

TEST_P(BalancedSpmv, MatchesPlainCsrmv) {
  Rng rng(101);
  const data::PowerlawGraph graph =
      data::make_powerlaw({.n = 150, .avg_degree = 9.0, .seed = 5});
  const Csr csr = coo_to_csr(graph.w);
  DeviceCsr dev(ctx_, csr);

  std::vector<real> x(static_cast<usize>(csr.cols));
  for (real& v : x) v = rng.uniform() - 0.5;
  std::vector<real> y0(static_cast<usize>(csr.rows));
  for (real& v : y0) v = rng.uniform();

  device::DeviceBuffer<real> dx(ctx_, std::span<const real>(x));
  for (const auto& [alpha, beta] :
       {std::pair<real, real>{1, 0}, {2.5, 0.5}, {-1, 1}}) {
    device::DeviceBuffer<real> dy_plain(ctx_, std::span<const real>(y0));
    device::DeviceBuffer<real> dy_bal(ctx_, std::span<const real>(y0));
    device_csrmv(ctx_, dev, dx.data(), dy_plain.data(), alpha, beta);
    device_csrmv_balanced(ctx_, dev, dx.data(), dy_bal.data(), alpha, beta);
    const auto expect = dy_plain.to_host();
    const auto got = dy_bal.to_host();
    // One kernel behind both names: the match is bitwise.
    for (usize i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i])
          << "alpha=" << alpha << " beta=" << beta << " i=" << i;
    }
  }
}

TEST_P(BalancedSpmv, CsrmmMatchesIndependentCsrmvCalls) {
  Rng rng(107);
  const Coo coo = random_coo(70, 70, 600, rng);
  const Csr csr = coo_to_csr(coo);
  DeviceCsr dev(ctx_, csr);
  const index_t n = csr.cols;
  const index_t nvec = 5;

  std::vector<real> x(static_cast<usize>(nvec) * static_cast<usize>(n));
  for (real& v : x) v = rng.uniform() - 0.5;
  std::vector<real> y0(static_cast<usize>(nvec) * static_cast<usize>(csr.rows));
  for (real& v : y0) v = rng.uniform();

  device::DeviceBuffer<real> dx(ctx_, std::span<const real>(x));
  for (const auto& [alpha, beta] :
       {std::pair<real, real>{1, 0}, {2.0, 0.5}}) {
    device::DeviceBuffer<real> dy(ctx_, std::span<const real>(y0));
    device_csrmm(ctx_, dev, dx.data(), dy.data(), nvec, alpha, beta);
    const auto got = dy.to_host();
    // Reference: one csrmv per packed vector.  The batched kernel
    // accumulates each (vector, row) pair in the identical order, so the
    // match must be bitwise.
    for (index_t j = 0; j < nvec; ++j) {
      const usize off = static_cast<usize>(j) * static_cast<usize>(n);
      device::DeviceBuffer<real> dxj(
          ctx_, std::span<const real>(x.data() + off, static_cast<usize>(n)));
      device::DeviceBuffer<real> dyj(
          ctx_, std::span<const real>(y0.data() + off,
                                      static_cast<usize>(csr.rows)));
      device_csrmv(ctx_, dev, dxj.data(), dyj.data(), alpha, beta);
      const auto expect = dyj.to_host();
      for (usize i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[off + i], expect[i])
            << "vector " << j << " row " << i << " alpha=" << alpha;
      }
    }
  }
}

TEST_P(BalancedSpmv, WholeRowSpansMatchAcrossWorkerCounts) {
  // Every worker owns whole rows of the merge-path cut, so each row sums
  // serially in entry order: y is bitwise the same for any worker count,
  // and the busiest worker stays within ceil((rows + nnz) / W) + max row
  // nnz entries.
  Rng rng(109);
  const data::PowerlawGraph graph =
      data::make_powerlaw({.n = 400, .avg_degree = 12.0, .seed = 9});
  const Csr csr = coo_to_csr(graph.w);
  std::vector<real> x(static_cast<usize>(csr.cols));
  for (real& v : x) v = rng.uniform() - 0.5;
  index_t max_row = 0;
  for (index_t r = 0; r < csr.rows; ++r) {
    max_row = std::max(max_row, csr.row_ptr[static_cast<usize>(r) + 1] -
                                    csr.row_ptr[static_cast<usize>(r)]);
  }

  DeviceCsr dev(ctx_, csr);
  device::DeviceBuffer<real> dx(ctx_, std::span<const real>(x));
  device::DeviceBuffer<real> dy(ctx_, static_cast<usize>(csr.rows));
  device_csrmv(ctx_, dev, dx.data(), dy.data());
  const std::vector<real> want = dy.to_host();

  for (const index_t workers : {1, 2, 3, 5, 8}) {
    device::DeviceContext other(static_cast<usize>(workers));
    DeviceCsr dev_w(other, csr);
    device::DeviceBuffer<real> dxw(other, std::span<const real>(x));
    device::DeviceBuffer<real> dyw(other, static_cast<usize>(csr.rows));
    device_csrmv(other, dev_w, dxw.data(), dyw.data());
    EXPECT_EQ(dyw.to_host(), want) << workers << " workers";
    const index_t bound = (csr.rows + csr.nnz() + workers - 1) / workers +
                          max_row;
    EXPECT_LE(obs::metrics().gauge("spmv.wave_max_nnz").value(), bound)
        << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, BalancedSpmv, ::testing::Values(1, 4));

}  // namespace
}  // namespace fastsc::sparse
