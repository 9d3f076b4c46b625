// Tests for the metrics registry: instrument identity, concurrent updates,
// the histogram bucket-edge semantics pinned in the header, the JSON
// snapshot shape, and the runtime publication glue.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/runtime_metrics.h"

namespace fastsc::obs {
namespace {

TEST(MetricsRegistry, InstrumentsAreCreatedOnceAndStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3);
  EXPECT_EQ(reg.instrument_count(), 1u);
  (void)reg.gauge("x");  // same name, different kind: separate instrument
  EXPECT_EQ(reg.instrument_count(), 2u);
}

TEST(MetricsRegistry, ConcurrentCounterIncrementsAllLand) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAddsEach = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      Counter& c = reg.counter("hits");  // lookup from many threads
      for (int i = 0; i < kAddsEach; ++i) c.add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.counter("hits").value(),
            static_cast<std::int64_t>(kThreads) * kAddsEach);
}

TEST(MetricsRegistry, HistogramBucketEdgeSemantics) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {0.0, 1.0, 2.0});
  // edges {0,1,2} -> 4 buckets: (-inf,0) [0,1) [1,2) [2,+inf).
  h.observe(-0.5);  // bucket 0
  h.observe(0.0);   // bucket 1: a value on an edge lands where it is the
  h.observe(0.5);   // bucket 1      lower bound
  h.observe(1.0);   // bucket 2
  h.observe(2.0);   // bucket 3
  h.observe(7.0);   // bucket 3
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 2);
  EXPECT_EQ(h.total_count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), -0.5 + 0.0 + 0.5 + 1.0 + 2.0 + 7.0);
}

TEST(MetricsRegistry, ConcurrentHistogramObservations) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("conc", {10.0});
  constexpr int kThreads = 8;
  constexpr int kObsEach = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kObsEach; ++i) h.observe(1.0);
    });
  }
  for (std::thread& w : workers) w.join();
  const auto total = static_cast<std::int64_t>(kThreads) * kObsEach;
  EXPECT_EQ(h.total_count(), total);
  EXPECT_EQ(h.bucket_count(0), total);  // all below the single edge
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(total));  // CAS-loop sum
}

TEST(MetricsRegistry, JsonSnapshotShape) {
  MetricsRegistry reg;
  reg.counter("c.events").add(5);
  reg.set_gauge("g.ratio", 0.75);
  reg.histogram("h.lat", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\":{\"c.events\":5}"), std::string::npos);
  EXPECT_NE(json.find("\"g.ratio\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\":[1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":1.5"), std::string::npos);
}

TEST(MetricsRegistry, ClearEmptiesTheRegistry) {
  MetricsRegistry reg;
  reg.counter("a").add();
  reg.set_gauge("b", 1.0);
  EXPECT_EQ(reg.instrument_count(), 2u);
  reg.clear();
  EXPECT_EQ(reg.instrument_count(), 0u);
  EXPECT_EQ(reg.counter("a").value(), 0);  // fresh instrument after clear
}

// A device runs one operation at a time, so the only pipeline gauge is the
// serial sum of kernel and link time; no overlap credit is subtracted.
TEST(RuntimeMetrics, PublishDeviceCountersExposesPipelineGauge) {
  device::DeviceCounters c;
  c.bytes_h2d = 1000;
  c.kernel_seconds = 2.5;
  c.modeled_transfer_seconds = 0.25;
  MetricsRegistry reg;
  publish_device_counters(c, reg);
  EXPECT_DOUBLE_EQ(reg.gauge("device.bytes_h2d").value(), 1000.0);
  EXPECT_DOUBLE_EQ(reg.gauge("device.kernel_seconds").value(), 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("device.modeled_transfer_seconds").value(),
                   0.25);
  EXPECT_DOUBLE_EQ(reg.gauge("device.modeled_pipeline_seconds").value(),
                   2.75);
}

// The context publishes its counters and its worker pool, nothing else:
// 16 device gauges plus 2 thread-pool gauges.
TEST(RuntimeMetrics, PublishDeviceContextCoversBothSources) {
  device::DeviceContext ctx(1);
  device::DeviceBuffer<double> buf(ctx, 64);
  std::vector<double> host(64, 1.0);
  buf.copy_from_host(host);
  device::launch(ctx, 64, [p = buf.data()](index_t i) { p[i] += 1; });
  MetricsRegistry reg;
  publish_device_context(ctx, reg);
  EXPECT_DOUBLE_EQ(reg.gauge("device.bytes_h2d").value(),
                   64.0 * sizeof(double));
  EXPECT_GE(reg.gauge("device.kernel_launches").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("thread_pool.workers").value(), 1.0);
  EXPECT_EQ(reg.instrument_count(), 18u);
}

}  // namespace
}  // namespace fastsc::obs
