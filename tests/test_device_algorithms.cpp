#include "device/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace fastsc::device {
namespace {

class DeviceAlgorithms : public ::testing::TestWithParam<int> {
 protected:
  DeviceContext ctx_{static_cast<usize>(GetParam())};
};

TEST_P(DeviceAlgorithms, FillAndSequence) {
  DeviceBuffer<double> buf(ctx_, 100);
  fill(ctx_, buf.data(), 100, 3.5);
  for (double v : buf.to_host()) EXPECT_EQ(v, 3.5);
  DeviceBuffer<index_t> seq(ctx_, 100);
  sequence(ctx_, seq.data(), 100, index_t{5});
  const auto h = seq.to_host();
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(h[static_cast<usize>(i)], i + 5);
}

TEST_P(DeviceAlgorithms, UnaryTransform) {
  std::vector<double> host(257);
  std::iota(host.begin(), host.end(), 0.0);
  DeviceBuffer<double> in(ctx_, std::span<const double>(host));
  DeviceBuffer<double> out(ctx_, host.size());
  transform(ctx_, in.data(), out.data(), static_cast<index_t>(host.size()),
            [](double v) { return 2 * v + 1; });
  const auto h = out.to_host();
  for (usize i = 0; i < h.size(); ++i) EXPECT_EQ(h[i], 2.0 * host[i] + 1);
}

TEST_P(DeviceAlgorithms, BinaryTransform) {
  std::vector<double> a(100, 2.0), b(100, 3.0);
  DeviceBuffer<double> da(ctx_, std::span<const double>(a));
  DeviceBuffer<double> db(ctx_, std::span<const double>(b));
  DeviceBuffer<double> out(ctx_, 100);
  transform(ctx_, da.data(), db.data(), out.data(), 100,
            [](double x, double y) { return x * y; });
  for (double v : out.to_host()) EXPECT_EQ(v, 6.0);
}

TEST_P(DeviceAlgorithms, Gather) {
  std::vector<double> src{10, 20, 30, 40};
  std::vector<index_t> map{3, 0, 2, 1};
  DeviceBuffer<double> dsrc(ctx_, std::span<const double>(src));
  DeviceBuffer<index_t> dmap(ctx_, std::span<const index_t>(map));
  DeviceBuffer<double> out(ctx_, 4);
  gather(ctx_, dmap.data(), dsrc.data(), out.data(), 4);
  EXPECT_EQ(out.to_host(), (std::vector<double>{40, 10, 30, 20}));
}

TEST_P(DeviceAlgorithms, ReduceSumMatchesSerial) {
  Rng rng(5);
  std::vector<double> host(4097);
  double expect = 0;
  for (double& v : host) {
    v = rng.uniform() - 0.5;
    expect += v;
  }
  DeviceBuffer<double> dev(ctx_, std::span<const double>(host));
  EXPECT_NEAR(reduce_sum(ctx_, dev.data(), static_cast<index_t>(host.size())),
              expect, 1e-9);
}

TEST_P(DeviceAlgorithms, ReduceSumBitwiseAcrossWorkerCounts) {
  // Fixed-size blocks fold in a fixed order, so the sum is the same bits
  // for any pool — including a serial one.
  std::vector<double> host(3 * device::kReduceBlock + 17);
  Rng rng(5);
  for (double& v : host) v = rng.uniform(-1, 1) * 1e3;
  const auto n = static_cast<index_t>(host.size());
  DeviceContext serial(1);
  DeviceBuffer<double> a(serial, std::span<const double>(host));
  DeviceBuffer<double> b(ctx_, std::span<const double>(host));
  const double want = reduce_sum(serial, a.data(), n);
  const double got = reduce_sum(ctx_, b.data(), n);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
}

TEST_P(DeviceAlgorithms, ReduceEmptyReturnsInit) {
  EXPECT_EQ(reduce(ctx_, static_cast<const double*>(nullptr), 0, 7.0,
                   [](double a, double b) { return a + b; }),
            7.0);
}

TEST_P(DeviceAlgorithms, MinElementIndexFindsFirstMinimum) {
  std::vector<double> host{5, 3, 1, 4, 1, 9};
  DeviceBuffer<double> dev(ctx_, std::span<const double>(host));
  EXPECT_EQ(min_element_index(ctx_, dev.data(), 6), 2);
  EXPECT_EQ(min_element_index(ctx_, dev.data(), 0), -1);
}

TEST_P(DeviceAlgorithms, ExclusiveScanMatchesSerial) {
  Rng rng(7);
  const index_t n = 1000;
  std::vector<double> host(static_cast<usize>(n));
  for (double& v : host) v = std::floor(rng.uniform() * 10);
  DeviceBuffer<double> in(ctx_, std::span<const double>(host));
  DeviceBuffer<double> out(ctx_, static_cast<usize>(n));
  const double total = exclusive_scan(ctx_, in.data(), out.data(), n);
  const auto h = out.to_host();
  double acc = 0;
  for (index_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(h[static_cast<usize>(i)], acc);
    acc += host[static_cast<usize>(i)];
  }
  EXPECT_DOUBLE_EQ(total, acc);
}

TEST_P(DeviceAlgorithms, InclusiveScanMatchesSerial) {
  std::vector<double> host{1, 2, 3, 4};
  DeviceBuffer<double> in(ctx_, std::span<const double>(host));
  DeviceBuffer<double> out(ctx_, 4);
  const double total = inclusive_scan(ctx_, in.data(), out.data(), 4);
  EXPECT_EQ(out.to_host(), (std::vector<double>{1, 3, 6, 10}));
  EXPECT_DOUBLE_EQ(total, 10.0);
}

TEST_P(DeviceAlgorithms, SortByKeyMatchesStdStableSort) {
  Rng rng(11);
  const index_t n = 5000;
  std::vector<index_t> keys(static_cast<usize>(n));
  std::vector<index_t> vals(static_cast<usize>(n));
  for (index_t i = 0; i < n; ++i) {
    keys[static_cast<usize>(i)] =
        static_cast<index_t>(rng.uniform_index(100));
    vals[static_cast<usize>(i)] = i;
  }
  std::vector<std::pair<index_t, index_t>> expect(static_cast<usize>(n));
  for (index_t i = 0; i < n; ++i) {
    expect[static_cast<usize>(i)] = {keys[static_cast<usize>(i)], i};
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](auto& a, auto& b) { return a.first < b.first; });

  DeviceBuffer<index_t> dk(ctx_, std::span<const index_t>(keys));
  DeviceBuffer<index_t> dv(ctx_, std::span<const index_t>(vals));
  sort_by_key(ctx_, dk.data(), dv.data(), n);
  const auto hk = dk.to_host();
  const auto hv = dv.to_host();
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(hk[static_cast<usize>(i)], expect[static_cast<usize>(i)].first);
    EXPECT_EQ(hv[static_cast<usize>(i)], expect[static_cast<usize>(i)].second);
  }
}

TEST_P(DeviceAlgorithms, SortByKeyHandlesTinyInputs) {
  DeviceBuffer<index_t> k(ctx_, 1);
  DeviceBuffer<index_t> v(ctx_, 1);
  fill(ctx_, k.data(), 1, index_t{5});
  fill(ctx_, v.data(), 1, index_t{9});
  sort_by_key(ctx_, k.data(), v.data(), 1);
  EXPECT_EQ(k.to_host()[0], 5);
  sort_by_key(ctx_, k.data(), v.data(), 0);  // no-op
}

TEST_P(DeviceAlgorithms, ReduceByKeySegments) {
  std::vector<index_t> keys{0, 0, 2, 2, 2, 5};
  std::vector<double> vals{1, 2, 3, 4, 5, 6};
  DeviceBuffer<index_t> dk(ctx_, std::span<const index_t>(keys));
  DeviceBuffer<double> dv(ctx_, std::span<const double>(vals));
  DeviceBuffer<index_t> ok(ctx_, 6);
  DeviceBuffer<double> ov(ctx_, 6);
  const index_t segs = reduce_by_key(ctx_, dk.data(), dv.data(), 6, ok.data(),
                                     ov.data());
  ASSERT_EQ(segs, 3);
  const auto hk = ok.to_host();
  const auto hv = ov.to_host();
  EXPECT_EQ(hk[0], 0);
  EXPECT_DOUBLE_EQ(hv[0], 3);
  EXPECT_EQ(hk[1], 2);
  EXPECT_DOUBLE_EQ(hv[1], 12);
  EXPECT_EQ(hk[2], 5);
  EXPECT_DOUBLE_EQ(hv[2], 6);
}

TEST_P(DeviceAlgorithms, CountIf) {
  std::vector<index_t> host(1000);
  for (index_t i = 0; i < 1000; ++i) host[static_cast<usize>(i)] = i % 3;
  DeviceBuffer<index_t> dev(ctx_, std::span<const index_t>(host));
  EXPECT_EQ(count_if(ctx_, dev.data(), 1000,
                     [](index_t v) { return v == 0; }),
            334);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DeviceAlgorithms,
                         ::testing::Values(1, 2, 4, 7));

}  // namespace
}  // namespace fastsc::device
