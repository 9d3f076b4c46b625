#include "device/algorithms.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"

namespace fastsc::device {
namespace {

class DeviceAlgorithms : public ::testing::TestWithParam<int> {
 protected:
  DeviceContext ctx_{static_cast<usize>(GetParam())};
};

TEST_P(DeviceAlgorithms, Fill) {
  DeviceBuffer<double> buf(ctx_, 100);
  fill(ctx_, buf.data(), 100, 3.5);
  for (double v : buf.to_host()) EXPECT_EQ(v, 3.5);
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

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DeviceAlgorithms,
                         ::testing::Values(1, 2, 4, 7));

}  // namespace
}  // namespace fastsc::device
