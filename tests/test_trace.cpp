// Tests for the trace recorder: disabled fast path, span/counter emission,
// concurrent recording, JSON shape, and the contract the trace_check CTest
// leans on — a device's virtual link and compute spans, merged, are
// pairwise disjoint and sum to DeviceCounters::modeled_pipeline_seconds(),
// also when several host threads share the context.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "device/device.h"
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

/// One device's virtual spans (its link and compute tracks merged), sorted
/// by begin, in microseconds.
std::vector<std::pair<double, double>> device_spans(
    const std::vector<TraceEvent>& events, const device::DeviceContext& ctx) {
  std::vector<std::pair<double, double>> spans;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X' || e.pid != kVirtualPid) continue;
    if (e.tid != ctx.link_tid() && e.tid != ctx.compute_tid()) continue;
    spans.emplace_back(e.ts_us, e.ts_us + e.dur_us);
  }
  std::sort(spans.begin(), spans.end());
  return spans;
}

/// A device runs one operation at a time: its spans never overlap, and
/// their durations add up to the counters' modeled busy time.
void expect_serial_timeline(const std::vector<std::pair<double, double>>& spans,
                            const device::DeviceCounters& c) {
  double busy_us = 0;
  for (usize i = 0; i < spans.size(); ++i) {
    busy_us += spans[i].second - spans[i].first;
    if (i > 0) {
      ASSERT_GE(spans[i].first, spans[i - 1].second - 1e-6)
          << "span " << i << " overlaps its predecessor";
    }
  }
  EXPECT_NEAR(busy_us * 1e-6, c.modeled_pipeline_seconds(), 1e-9);
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
  expect_serial_timeline(device_spans(trace().snapshot(), ctx), c);
}

// The service pattern: two host threads copy and launch concurrently on one
// shared context.  Each operation still lands on the one virtual timeline
// after the previous one, whichever thread issued it.
TEST(Trace, SharedContextTimelineStaysSerialAcrossThreads) {
  device::DeviceContext ctx(2);
  const TraceEnableScope on(true);
  trace().clear();
  constexpr usize kElems = 512;
  constexpr int kRounds = 40;
  constexpr int kThreads = 2;
  constexpr double kKernelSeconds = 1e-5;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      device::DeviceBuffer<double> buf(ctx, kElems);
      std::vector<double> host(kElems, 1.0);
      while (!go.load()) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        device::copy_h2d(ctx, buf.data(), host.data(), kElems);
        device::launch(
            ctx, static_cast<index_t>(kElems),
            [p = buf.data()](index_t i) { p[i] += 1; },
            device::LaunchConfig{.modeled_seconds = kKernelSeconds});
        device::copy_d2h(ctx, host.data(), buf.data(), kElems);
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  // The counters hold both threads' work, exactly.
  const device::DeviceCounters c = ctx.counters_snapshot();
  const usize ops = static_cast<usize>(kThreads) * kRounds;
  const usize bytes = kElems * sizeof(double);
  EXPECT_EQ(c.transfers_h2d, ops);
  EXPECT_EQ(c.transfers_d2h, ops);
  EXPECT_EQ(c.bytes_h2d, ops * bytes);
  EXPECT_EQ(c.bytes_d2h, ops * bytes);
  EXPECT_EQ(c.kernel_launches, ops);
  EXPECT_NEAR(c.kernel_seconds, static_cast<double>(ops) * kKernelSeconds,
              1e-12);
  EXPECT_NEAR(c.modeled_transfer_seconds,
              2.0 * static_cast<double>(ops) *
                  ctx.transfer_model().seconds_for(bytes),
              1e-12);

  // One span per operation, pairwise disjoint, ending where the timeline
  // ends, and summing to the modeled busy time.
  const auto spans = device_spans(trace().snapshot(), ctx);
  ASSERT_EQ(spans.size(), 3 * ops);
  expect_serial_timeline(spans, c);
  EXPECT_NEAR(spans.back().second * 1e-6, ctx.virtual_now(), 1e-9);
}

}  // namespace
}  // namespace fastsc::obs
