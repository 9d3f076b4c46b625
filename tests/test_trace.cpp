// Tests for the trace recorder: disabled fast path, span/counter emission,
// concurrent recording, JSON shape, and the contract the trace_check CTest
// leans on — the virtual-timeline intervals in the trace reproduce
// DeviceCounters::overlapped_seconds when recomputed pairwise.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "device/device.h"
#include "device/executor.h"
#include "obs/metrics.h"

namespace fastsc::obs {
namespace {

TEST(Trace, DisabledRecorderDropsEverything) {
  TraceRecorder rec;
  rec.set_enabled(false);
  rec.complete(kWallPid, 1, "span", "cat", 0.0, 1.0);
  rec.counter("c", 1.0, 0.0);
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(Trace, DisabledScopedSpanRecordsNothing) {
  trace().set_enabled(false);
  trace().clear();
  {
    ScopedSpan span("invisible");
  }
  EXPECT_EQ(trace().event_count(), 0u);
}

TEST(Trace, ScopedSpanRecordsCompleteEventOnWallTrack) {
  const TraceEnableScope on(true);
  trace().clear();
  {
    ScopedSpan span("work", "test", {{"n", 7.0}});
  }
  const std::vector<TraceEvent> events = trace().snapshot();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_EQ(e.name, "work");
  EXPECT_EQ(e.cat, "test");
  EXPECT_EQ(e.phase, 'X');
  EXPECT_EQ(e.pid, kWallPid);
  EXPECT_GT(e.tid, 0u);
  EXPECT_GT(e.ts_us, 0.0);
  EXPECT_GE(e.dur_us, 0.0);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].key, "n");
  EXPECT_DOUBLE_EQ(e.args[0].num, 7.0);
}

TEST(Trace, CounterEventCarriesValue) {
  const TraceEnableScope on(true);
  trace().clear();
  trace().counter("lanczos.worst_residual", 0.125, 10.0);
  const std::vector<TraceEvent> events = trace().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'C');
  EXPECT_EQ(events[0].name, "lanczos.worst_residual");
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].args[0].num, 0.125);
}

TEST(Trace, ConcurrentSpansAllLandOnDistinctTracks) {
  const TraceEnableScope on(true);
  trace().clear();
  constexpr int kThreads = 8;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) {
        ScopedSpan span("burst");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<TraceEvent> events = trace().snapshot();
  ASSERT_EQ(events.size(),
            static_cast<usize>(kThreads) * static_cast<usize>(kSpansEach));
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<usize>(kThreads));
}

TEST(Trace, JsonHasMetadataTracksAndEvents) {
  const TraceEnableScope on(true);
  trace().clear();
  trace().complete(kVirtualPid, kLinkTid, "h2d", "transfer", 0.0, 5.0,
                   {{"bytes", 4096.0}});
  std::ostringstream os;
  trace().write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"PCIe link\""), std::string::npos);
  EXPECT_NE(json.find("\"compute engine\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"h2d\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
}

TEST(Trace, EnableScopeRestoresPreviousState) {
  trace().set_enabled(false);
  {
    const TraceEnableScope on(true);
    EXPECT_TRUE(trace_enabled());
    {
      const TraceEnableScope inner(false);  // "false" must not disable
      EXPECT_TRUE(trace_enabled());
    }
    EXPECT_TRUE(trace_enabled());
  }
  EXPECT_FALSE(trace_enabled());
}

/// Pairwise link-x-compute overlap from the virtual-timeline events, the
/// same sum DeviceContext accumulates incrementally (and the recomputation
/// tools/check_trace.py performs on the JSON).
double recompute_overlap_seconds(const std::vector<TraceEvent>& events) {
  std::vector<std::pair<double, double>> link;
  std::vector<std::pair<double, double>> compute;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X' || e.pid != kVirtualPid) continue;
    const std::pair<double, double> iv{e.ts_us, e.ts_us + e.dur_us};
    if (e.tid == kLinkTid) link.push_back(iv);
    if (e.tid == kComputeTid) compute.push_back(iv);
  }
  double total_us = 0;
  for (const auto& [cb, ce] : link) {
    for (const auto& [kb, ke] : compute) {
      const double ov = std::min(ce, ke) - std::max(cb, kb);
      if (ov > 0) total_us += ov;
    }
  }
  return total_us * 1e-6;
}

TEST(Trace, ExecutorOverlapMatchesDeviceCounters) {
  device::TransferModel model;
  model.bandwidth_bytes_per_sec = 1e6;
  model.efficiency = 1.0;
  model.latency_seconds = 0;
  device::DeviceContext ctx(1, model);
  device::PipelineExecutor exec(ctx, 2);
  device::DeviceBuffer<unsigned char> buf_a(ctx, 500000);
  device::DeviceBuffer<unsigned char> buf_b(ctx, 500000);
  std::vector<unsigned char> host(500000, 0);

  const TraceEnableScope on(true);
  trace().clear();
  using Exec = device::PipelineExecutor;
  // Double buffering: tile B uploads over [0, 0.5] on the link while a
  // kernel occupies the compute engine over [0, 1].
  exec.add(Exec::kTransferStream, "h2d-b", [&] {
    device::copy_h2d(ctx, buf_b.data(), host.data(), host.size());
  });
  exec.add(Exec::kComputeStream, "kernel-a", [&] {
    device::launch(
        ctx, 1, [p = buf_a.data()](index_t) { p[0] = 1; },
        device::LaunchConfig{.modeled_seconds = 1.0});
  });
  exec.run();

  const device::DeviceCounters c = ctx.counters_snapshot();
  ASSERT_DOUBLE_EQ(c.overlapped_seconds, 0.5);
  const std::vector<TraceEvent> events = trace().snapshot();
  EXPECT_NEAR(recompute_overlap_seconds(events), c.overlapped_seconds, 1e-9);

  // The wall timeline carries the executor node spans alongside.
  bool saw_h2d_node = false;
  bool saw_kernel_node = false;
  for (const TraceEvent& e : events) {
    if (e.pid != kWallPid) continue;
    if (e.name == "h2d-b") saw_h2d_node = true;
    if (e.name == "kernel-a") saw_kernel_node = true;
  }
  EXPECT_TRUE(saw_h2d_node);
  EXPECT_TRUE(saw_kernel_node);
}

// Two service jobs can hold TraceEnableScope with overlapping, non-nested
// lifetimes.  The scope is a refcount, not a save/restore of a global bool:
// destroying the first scope must not disable tracing while the second is
// still alive.
TEST(Trace, EnableScopesAreRefcountedNotSaveRestore) {
  trace().set_enabled(false);
  auto a = std::make_unique<TraceEnableScope>(true);
  auto b = std::make_unique<TraceEnableScope>(true);
  EXPECT_TRUE(trace().enabled());
  a.reset();  // non-LIFO teardown: "job A" finishes first
  EXPECT_TRUE(trace().enabled());
  b.reset();
  EXPECT_FALSE(trace().enabled());
}

TEST(Trace, EnableScopesFromConcurrentThreads) {
  trace().set_enabled(false);
  std::atomic<int> saw_disabled{0};
  std::vector<std::thread> jobs;
  for (int t = 0; t < 4; ++t) {
    jobs.emplace_back([&] {
      for (int r = 0; r < 200; ++r) {
        const TraceEnableScope on(true);
        if (!trace().enabled()) saw_disabled.fetch_add(1);
      }
    });
  }
  for (std::thread& j : jobs) j.join();
  EXPECT_EQ(saw_disabled.load(), 0);
  EXPECT_FALSE(trace().enabled());
}

// obs::bump under contention: half the threads record through a per-job
// recorder that tees into the global one, half straight into the global
// one.  Each recorder's series, sorted by timestamp, must never decrease —
// the tools/check_trace.py rule for cumulative counters — and the global
// recorder must hold one sample per bump ending at the final total.
TEST(Trace, ConcurrentBumpsRecordNonDecreasingSeries) {
  const TraceEnableScope on(true);
  trace().clear();
  TraceRecorder job;
  job.set_enabled(true);
  job.set_tee(&trace());
  const char* name = "test.concurrent_bumps";
  const std::int64_t start = metrics().counter(name).value();
  constexpr int kThreads = 8;
  constexpr int kBumps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const TraceBindScope bind(t % 2 == 0 ? &job : nullptr);
      for (int i = 0; i < kBumps; ++i) bump(name, 3);
    });
  }
  for (std::thread& t : threads) t.join();

  const auto series = [&](const TraceRecorder& rec) {
    std::vector<std::pair<double, double>> out;
    for (const TraceEvent& e : rec.snapshot()) {
      if (e.phase == 'C' && e.name == name) {
        out.emplace_back(e.ts_us, e.args.at(0).num);
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    return out;
  };
  const auto global = series(trace());
  const auto local = series(job);
  ASSERT_EQ(global.size(), static_cast<usize>(kThreads * kBumps));
  ASSERT_EQ(local.size(), static_cast<usize>(kThreads / 2 * kBumps));
  for (const auto* s : {&global, &local}) {
    for (usize i = 1; i < s->size(); ++i) {
      ASSERT_LE((*s)[i - 1].second, (*s)[i].second) << "sample " << i;
    }
  }
  EXPECT_EQ(global.back().second,
            static_cast<double>(start + 3 * kThreads * kBumps));
}

TEST(Trace, SequentialDeviceWorkProducesNoOverlap) {
  device::DeviceContext ctx(1);
  const TraceEnableScope on(true);
  trace().clear();
  device::DeviceBuffer<double> buf(ctx, 1024);
  std::vector<double> host(1024, 1.0);
  buf.copy_from_host(host);
  device::launch(ctx, 1024, [p = buf.data()](index_t i) { p[i] *= 2; });
  buf.copy_to_host(host);
  const device::DeviceCounters c = ctx.counters_snapshot();
  const std::vector<TraceEvent> events = trace().snapshot();
  EXPECT_NEAR(recompute_overlap_seconds(events), c.overlapped_seconds, 1e-9);
}

}  // namespace
}  // namespace fastsc::obs
