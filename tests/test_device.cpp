#include "device/device.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace fastsc::device {
namespace {

TEST(TransferModel, MonotoneInBytes) {
  TransferModel m;
  EXPECT_LT(m.seconds_for(1000), m.seconds_for(1000000));
}

TEST(TransferModel, LatencyFloorApplies) {
  TransferModel m;
  EXPECT_GE(m.seconds_for(0), m.latency_seconds);
}

TEST(TransferModel, BandwidthMath) {
  TransferModel m;
  m.bandwidth_bytes_per_sec = 1e9;
  m.efficiency = 1.0;
  m.latency_seconds = 0;
  EXPECT_DOUBLE_EQ(m.seconds_for(1000000000), 1.0);
}

TEST(DeviceBuffer, RoundTripPreservesData) {
  DeviceContext ctx(2);
  std::vector<double> host(1000);
  std::iota(host.begin(), host.end(), 0.0);
  DeviceBuffer<double> dev(ctx, std::span<const double>(host));
  std::vector<double> back(1000);
  dev.copy_to_host(std::span<double>(back));
  EXPECT_EQ(host, back);
}

TEST(DeviceBuffer, TransfersAreMetered) {
  DeviceContext ctx(1);
  std::vector<double> host(100, 1.0);
  DeviceBuffer<double> dev(ctx, std::span<const double>(host));
  dev.copy_to_host(std::span<double>(host));
  const auto& c = ctx.counters();
  EXPECT_EQ(c.bytes_h2d, 800u);
  EXPECT_EQ(c.bytes_d2h, 800u);
  EXPECT_EQ(c.transfers_h2d, 1u);
  EXPECT_EQ(c.transfers_d2h, 1u);
  EXPECT_GT(c.modeled_transfer_seconds, 0.0);
}

TEST(DeviceBuffer, ModeledTimeMatchesModel) {
  DeviceContext ctx(1);
  std::vector<double> host(1000, 0.0);
  DeviceBuffer<double> dev(ctx, std::span<const double>(host));
  EXPECT_DOUBLE_EQ(ctx.counters().modeled_transfer_seconds,
                   ctx.transfer_model().seconds_for(8000));
}

TEST(DeviceBuffer, AllocationAccounting) {
  DeviceContext ctx(1);
  {
    DeviceBuffer<double> a(ctx, 100);
    EXPECT_EQ(ctx.counters().live_bytes, 800u);
    {
      DeviceBuffer<double> b(ctx, 50);
      EXPECT_EQ(ctx.counters().live_bytes, 1200u);
      EXPECT_EQ(ctx.counters().peak_bytes, 1200u);
    }
    EXPECT_EQ(ctx.counters().live_bytes, 800u);
  }
  EXPECT_EQ(ctx.counters().live_bytes, 0u);
  EXPECT_EQ(ctx.counters().peak_bytes, 1200u);
  EXPECT_EQ(ctx.counters().total_allocations, 2u);
}

TEST(DeviceBuffer, MoveDoesNotDoubleFree) {
  DeviceContext ctx(1);
  DeviceBuffer<int> a(ctx, 10);
  DeviceBuffer<int> b(std::move(a));
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(ctx.counters().live_bytes, 40u);
  DeviceBuffer<int> c(ctx, 5);
  c = std::move(b);
  EXPECT_EQ(ctx.counters().live_bytes, 40u);
}

TEST(DeviceBuffer, SizeMismatchThrows) {
  DeviceContext ctx(1);
  DeviceBuffer<double> dev(ctx, 10);
  std::vector<double> wrong(5);
  EXPECT_THROW(dev.copy_from_host(std::span<const double>(wrong)),
               std::invalid_argument);
  EXPECT_THROW(dev.copy_to_host(std::span<double>(wrong)),
               std::invalid_argument);
}

TEST(Launch, CoversAllThreadIds) {
  DeviceContext ctx(4);
  const index_t n = 12345;
  std::vector<std::atomic<int>> hits(static_cast<usize>(n));
  launch(ctx, n, [&](index_t i) { hits[static_cast<usize>(i)].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Launch, MetersKernelTimeAndCount) {
  DeviceContext ctx(1);
  launch(ctx, 10, [](index_t) {});
  launch(ctx, 10, [](index_t) {});
  EXPECT_EQ(ctx.counters().kernel_launches, 2u);
  EXPECT_GE(ctx.counters().kernel_seconds, 0.0);
}

TEST(Launch, ZeroThreadsIsANoop) {
  DeviceContext ctx(2);
  bool ran = false;
  launch(ctx, 0, [&](index_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(ctx.counters().kernel_launches, 1u);
}

TEST(Launch, KernelCostModelChargesDeclaredBytes) {
  DeviceContext ctx(1);
  ctx.set_kernel_cost_model(1e9, 5e-6);
  // No modeled_seconds: charged latency + (bytes_read + bytes_written) / rate.
  LaunchConfig cfg;
  cfg.bytes_read = 3000;
  cfg.bytes_written = 1000;
  launch(ctx, 10, [](index_t) {}, cfg);
  EXPECT_DOUBLE_EQ(ctx.counters().kernel_seconds, 5e-6 + 4000 / 1e9);
  // An explicit override keeps its own formula.
  cfg.modeled_seconds = 1e-3;
  launch(ctx, 10, [](index_t) {}, cfg);
  EXPECT_DOUBLE_EQ(ctx.counters().kernel_seconds, 5e-6 + 4000 / 1e9 + 1e-3);
  // Direct record_kernel callers are charged the same way; empty launches
  // are free.
  obs::KernelCost cost;
  cost.bytes_read = 2000;
  ctx.record_kernel(0.5, -1.0, cost);
  launch(ctx, 0, [](index_t) {}, cfg);
  EXPECT_DOUBLE_EQ(ctx.counters().kernel_seconds,
                   5e-6 + 4000 / 1e9 + 1e-3 + 5e-6 + 2000 / 1e9);
  EXPECT_DOUBLE_EQ(ctx.modeled_kernel_seconds(1e9), 5e-6 + 1.0);
  ctx.set_kernel_cost_model(0, 0);
  EXPECT_LT(ctx.modeled_kernel_seconds(1e9), 0);  // off: measure wall time
}

TEST(LaunchConfig, GridCoversThreads) {
  LaunchConfig cfg;
  cfg.block = 256;
  EXPECT_EQ(cfg.grid_for(1), 1);
  EXPECT_EQ(cfg.grid_for(256), 1);
  EXPECT_EQ(cfg.grid_for(257), 2);
}

TEST(DeviceContext, DescriptionMentionsWorkersAndLink) {
  DeviceContext ctx(3);
  const std::string d = ctx.description();
  EXPECT_NE(d.find("3 worker"), std::string::npos);
  EXPECT_NE(d.find("PCIe"), std::string::npos);
}

TEST(DeviceContext, CountersResetClearsEverything) {
  DeviceContext ctx(1);
  std::vector<double> host(10, 0.0);
  DeviceBuffer<double> dev(ctx, std::span<const double>(host));
  ctx.counters().reset();
  EXPECT_EQ(ctx.counters().bytes_h2d, 0u);
  EXPECT_EQ(ctx.counters().modeled_transfer_seconds, 0.0);
}

TEST(DeviceMemoryLimit, ThrowsWhenBudgetExceeded) {
  DeviceContext ctx(1);
  ctx.set_memory_limit(1000);
  DeviceBuffer<double> a(ctx, 100);  // 800 bytes, fits
  EXPECT_THROW(DeviceBuffer<double>(ctx, 100), DeviceOutOfMemory);
  // Releasing frees budget.
  a = DeviceBuffer<double>();
  EXPECT_NO_THROW(DeviceBuffer<double>(ctx, 100));
}

TEST(DeviceMemoryLimit, ZeroMeansUnlimited) {
  DeviceContext ctx(1);
  EXPECT_EQ(ctx.memory_limit(), 0u);
  EXPECT_NO_THROW(DeviceBuffer<double>(ctx, 1 << 16));
}

TEST(DeviceMemoryLimit, ExactFitIsAllowed) {
  DeviceContext ctx(1);
  ctx.set_memory_limit(800);
  EXPECT_NO_THROW(DeviceBuffer<double>(ctx, 100));
}

TEST(DefaultDevice, IsSingleton) {
  EXPECT_EQ(&default_device(), &default_device());
}

}  // namespace
}  // namespace fastsc::device
