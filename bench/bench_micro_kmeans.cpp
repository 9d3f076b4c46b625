// Micro benchmark: k-means kernels — seeding, assignment and update steps —
// plus whole-run comparisons device vs Lloyd baselines.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "kmeans/kmeans.h"
#include "kmeans/lloyd.h"
#include "kmeans/seeding.h"

namespace {

using namespace fastsc;

std::vector<real> blob_data(index_t n, index_t d, index_t k) {
  Rng rng(11);
  std::vector<real> x(static_cast<usize>(n * d));
  for (index_t i = 0; i < n; ++i) {
    const real base = static_cast<real>((i % k) * 8);
    for (index_t l = 0; l < d; ++l) {
      x[static_cast<usize>(i * d + l)] = base + rng.normal();
    }
  }
  return x;
}

void BM_KmeansDeviceFull(benchmark::State& state) {
  const index_t n = 8000, d = 32;
  const index_t k = state.range(0);
  const auto x = blob_data(n, d, k);
  device::DeviceContext ctx;
  for (auto _ : state) {
    kmeans::KmeansConfig cfg;
    cfg.k = k;
    cfg.max_iters = 20;
    const auto r = kmeans::kmeans_device(ctx, x.data(), n, d, cfg);
    benchmark::DoNotOptimize(r.labels.data());
  }
}

void BM_KmeansLloydFull(benchmark::State& state) {
  const index_t n = 8000, d = 32;
  const index_t k = state.range(0);
  const auto x = blob_data(n, d, k);
  for (auto _ : state) {
    kmeans::KmeansConfig cfg;
    cfg.k = k;
    cfg.max_iters = 20;
    const auto r = kmeans::kmeans_lloyd_host(x.data(), n, d, cfg);
    benchmark::DoNotOptimize(r.labels.data());
  }
}

void BM_KmeansppHostSeeding(benchmark::State& state) {
  const index_t n = 8000, d = 32;
  const index_t k = state.range(0);
  const auto x = blob_data(n, d, k);
  for (auto _ : state) {
    Rng rng(7);
    const auto seeds = kmeans::kmeanspp_seeds_host(x.data(), n, d, k, rng);
    benchmark::DoNotOptimize(seeds.data());
  }
}

}  // namespace

BENCHMARK(BM_KmeansDeviceFull)->Arg(16)->Arg(64);
BENCHMARK(BM_KmeansLloydFull)->Arg(16)->Arg(64);
BENCHMARK(BM_KmeansppHostSeeding)->Arg(16)->Arg(64);
