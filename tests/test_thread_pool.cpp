#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/par.h"

namespace fastsc {
namespace {

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  int calls = 0;
  pool.run_workers([&](usize w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EveryWorkerInvokedExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_workers([&](usize w) { hits[w].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RepeatedDispatchesAreIndependent) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run_workers([&](usize) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

// Service executors share one pool: dispatches from several threads must
// serialize cleanly, each job running every worker exactly once.
TEST(ThreadPool, ConcurrentDispatchersAreSerialized) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int r = 0; r < 25; ++r) {
        pool.run_workers([&](usize) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(total.load(), 4 * 25 * 2);
}

// Workers must observe the dispatcher's cancellation governor, so per-job
// deadlines govern the parallel sections run on the job's behalf.
TEST(ThreadPool, DispatchPropagatesBoundGovernor) {
  ThreadPool pool(4);
  cancel::Governor gov;
  const cancel::GovernorBindScope bind(&gov);
  std::atomic<int> mismatches{0};
  pool.run_workers([&](usize) {
    if (&cancel::current_governor() != &gov) mismatches.fetch_add(1);
  });
  EXPECT_EQ(mismatches.load(), 0);
  // And an unbound dispatcher leaves workers on the default governor.
  const cancel::GovernorBindScope unbind(nullptr);
  std::atomic<int> defaulted{0};
  pool.run_workers([&](usize) {
    if (&cancel::current_governor() == &cancel::governor()) {
      defaulted.fetch_add(1);
    }
  });
  EXPECT_EQ(defaulted.load(), static_cast<int>(pool.worker_count()));
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  EXPECT_EQ(&default_thread_pool(), &default_thread_pool());
  EXPECT_GE(default_thread_pool().worker_count(), 1u);
}

// A default-sized pool must not outnumber the CPUs its creating thread may
// run on (taskset, cpusets), or its workers only time-slice those CPUs.
TEST(ThreadPool, DefaultSizeFollowsAffinityMask) {
  usize workers = 0;
  std::thread pinned([&] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &mask)) ++cpu;
    ASSERT_LT(cpu, CPU_SETSIZE);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    workers = ThreadPool(0).worker_count();
  });
  pinned.join();
  EXPECT_EQ(workers, 1u);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const index_t n = 10007;
  std::vector<std::atomic<int>> hits(static_cast<usize>(n));
  parallel_for(pool, index_t{0}, n,
               [&](index_t i) { hits[static_cast<usize>(i)].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, index_t{5}, index_t{5}, [&](index_t) { ++calls; });
  parallel_for(pool, index_t{5}, index_t{3}, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<index_t> sum{0};
  parallel_for(pool, index_t{10}, index_t{20},
               [&](index_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

}  // namespace
}  // namespace fastsc
