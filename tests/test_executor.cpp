// Tests for the dependency-graph pipeline executor: DAG ordering within and
// across streams, eager emission (transfer work proceeds while compute
// runs), graph validation, error propagation through run(), reuse across
// waves via reset(), and overlap attribution for transfer/compute pairs.
#include "device/executor.h"

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

namespace fastsc::device {
namespace {

TransferModel unit_model() {
  TransferModel m;
  m.bandwidth_bytes_per_sec = 1e6;
  m.efficiency = 1.0;
  m.latency_seconds = 0;
  return m;
}

/// Thread-safe completion log shared by executor nodes.
struct OrderLog {
  std::mutex mu;
  std::vector<std::string> done;

  void mark(std::string label) {
    std::lock_guard lock(mu);
    done.push_back(std::move(label));
  }
  [[nodiscard]] usize index_of(const std::string& label) {
    std::lock_guard lock(mu);
    for (usize i = 0; i < done.size(); ++i) {
      if (done[i] == label) return i;
    }
    return done.size();
  }
};

TEST(Executor, DiamondDependenciesRespectEdges) {
  DeviceContext ctx(1);
  PipelineExecutor exec(ctx, 2);
  OrderLog log;
  const auto a = exec.add(0, "a", [&] { log.mark("a"); });
  const auto b = exec.add(0, "b", [&] { log.mark("b"); }, {a});
  const auto c = exec.add(1, "c", [&] { log.mark("c"); }, {a});
  exec.add(1, "d", [&] { log.mark("d"); }, {b, c});
  exec.run();
  ASSERT_EQ(log.done.size(), 4u);
  EXPECT_LT(log.index_of("a"), log.index_of("b"));
  EXPECT_LT(log.index_of("a"), log.index_of("c"));
  EXPECT_LT(log.index_of("b"), log.index_of("d"));
  EXPECT_LT(log.index_of("c"), log.index_of("d"));
}

TEST(Executor, CrossStreamDependencyOrdersWork) {
  DeviceContext ctx(1);
  PipelineExecutor exec(ctx, 3);
  OrderLog log;
  const auto producer = exec.add(0, "produce", [&] { log.mark("produce"); });
  exec.add(1, "consume1", [&] { log.mark("consume1"); }, {producer});
  exec.add(2, "consume2", [&] { log.mark("consume2"); }, {producer});
  exec.run();
  EXPECT_LT(log.index_of("produce"), log.index_of("consume1"));
  EXPECT_LT(log.index_of("produce"), log.index_of("consume2"));
}

TEST(Executor, DependencyMustNameEarlierNode) {
  DeviceContext ctx(1);
  PipelineExecutor exec(ctx, 2);
  const auto a = exec.add(0, "a", [] {});
  // A node cannot depend on itself or on a node not yet added (the graph is
  // acyclic by construction).
  EXPECT_THROW(exec.add(0, "bad", [] {}, {a + 1}), std::invalid_argument);
  EXPECT_THROW(exec.add(7, "bad-stream", [] {}), std::invalid_argument);
}

TEST(Executor, DoneEventIsWaitableFromHost) {
  DeviceContext ctx(1);
  PipelineExecutor exec(ctx, 2);
  std::vector<int> values;
  const auto node = exec.add(0, "fill", [&] { values.push_back(42); });
  exec.done(node).wait();
  EXPECT_EQ(values, std::vector<int>{42});
  exec.run();
}

TEST(Executor, ResetStartsANewWaveOnTheSameStreams) {
  DeviceContext ctx(1);
  PipelineExecutor exec(ctx, 2);
  OrderLog log;
  exec.add(0, "wave1", [&] { log.mark("wave1"); });
  exec.run();
  EXPECT_EQ(exec.node_count(), 1u);
  exec.reset();
  EXPECT_EQ(exec.node_count(), 0u);
  const auto a = exec.add(0, "wave2-a", [&] { log.mark("wave2-a"); });
  exec.add(1, "wave2-b", [&] { log.mark("wave2-b"); }, {a});
  exec.run();
  EXPECT_LT(log.index_of("wave1"), log.index_of("wave2-a"));
  EXPECT_LT(log.index_of("wave2-a"), log.index_of("wave2-b"));
}

TEST(Executor, RunRethrowsNodeError) {
  DeviceContext ctx(1);
  ctx.set_memory_limit(1000);
  PipelineExecutor exec(ctx, 2);
  exec.add(0, "oom", [&ctx] { DeviceBuffer<double> big(ctx, 1024); });
  EXPECT_THROW(exec.run(), DeviceOutOfMemory);
  // The executor (and its streams) stay usable for the next wave.
  exec.reset();
  bool ran = false;
  exec.add(0, "after", [&ran] { ran = true; });
  exec.run();
  EXPECT_TRUE(ran);
}

TEST(Executor, TransferComputePairProducesOverlap) {
  DeviceContext ctx(1, unit_model());
  PipelineExecutor exec(ctx, 2);
  DeviceBuffer<unsigned char> buf_a(ctx, 500000);
  DeviceBuffer<unsigned char> buf_b(ctx, 500000);
  std::vector<unsigned char> host(500000, 0);
  using Exec = PipelineExecutor;
  // Double buffering: stage tile B H2D [0, 0.5] on the transfer stream while
  // a kernel on tile A occupies the compute engine over [0, 1].
  exec.add(Exec::kTransferStream, "h2d-b", [&] {
    copy_h2d(ctx, buf_b.data(), host.data(), host.size());
  });
  exec.add(Exec::kComputeStream, "kernel-a", [&] {
    launch(
        ctx, 1, [p = buf_a.data()](index_t) { p[0] = 1; },
        LaunchConfig{.modeled_seconds = 1.0});
  });
  exec.run();
  const DeviceCounters c = ctx.counters_snapshot();
  EXPECT_DOUBLE_EQ(c.overlapped_seconds, 0.5);
  EXPECT_DOUBLE_EQ(c.overlapped_h2d_seconds, 0.5);
}

}  // namespace
}  // namespace fastsc::device
