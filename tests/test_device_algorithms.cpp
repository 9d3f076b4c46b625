#include "device/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
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

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DeviceAlgorithms,
                         ::testing::Values(1, 2, 4, 7));

}  // namespace
}  // namespace fastsc::device
