// Micro benchmark: SpMV throughput of host COO and CSR and the device csrmv,
// backing the paper's §IV.A format discussion with the formats the pipeline
// runs (Algorithm 2 builds COO and converts it to CSR for Algorithm 3).
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "data/powerlaw.h"
#include "data/sbm.h"
#include "sparse/convert.h"
#include "sparse/spmv.h"

namespace {

using namespace fastsc;

struct Fixture {
  sparse::Coo coo;
  sparse::Csr csr;
  std::vector<real> x, y;

  explicit Fixture(index_t n) {
    data::SbmParams p;
    p.block_sizes = data::equal_blocks(n, std::max<index_t>(4, n / 100));
    p.p_in = 0.2;
    p.p_out = 4.0 / static_cast<real>(n);
    const data::SbmGraph g = data::make_sbm(p);
    coo = g.w;
    csr = sparse::coo_to_csr(coo);
    x.assign(static_cast<usize>(n), 1.0);
    y.assign(static_cast<usize>(n), 0.0);
    Rng rng(7);
    for (real& v : x) v = rng.uniform(-1, 1);
  }
};

Fixture& fixture(index_t n) {
  static std::map<index_t, Fixture> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, Fixture(n)).first;
  return it->second;
}

void BM_SpmvCsr(benchmark::State& state) {
  Fixture& f = fixture(state.range(0));
  for (auto _ : state) {
    sparse::csr_mv(f.csr, f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.nnz());
}

void BM_SpmvCoo(benchmark::State& state) {
  Fixture& f = fixture(state.range(0));
  for (auto _ : state) {
    sparse::coo_mv(f.coo, f.x.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.coo.nnz());
}

void BM_SpmvDeviceCsr(benchmark::State& state) {
  Fixture& f = fixture(state.range(0));
  device::DeviceContext ctx;
  sparse::DeviceCsr dev(ctx, f.csr);
  device::DeviceBuffer<real> dx(ctx, std::span<const real>(f.x));
  device::DeviceBuffer<real> dy(ctx, f.y.size());
  for (auto _ : state) {
    sparse::device_csrmv(ctx, dev, dx.data(), dy.data());
    benchmark::DoNotOptimize(dy.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.nnz());
}

// Skewed (Zipf-degree) matrix: the hub rows break the row-chunked split, so
// this is where the merge-path kernel separates from device_csrmv.
struct SkewedFixture {
  sparse::Csr csr;
  std::vector<real> x, y;

  explicit SkewedFixture(index_t n) {
    const data::PowerlawGraph g =
        data::make_powerlaw({.n = n, .avg_degree = 12.0, .seed = 9});
    csr = sparse::coo_to_csr(g.w);
    x.assign(static_cast<usize>(n), 0.0);
    y.assign(static_cast<usize>(n), 0.0);
    Rng rng(7);
    for (real& v : x) v = rng.uniform(-1, 1);
  }
};

SkewedFixture& skewed_fixture(index_t n) {
  static std::map<index_t, SkewedFixture> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, SkewedFixture(n)).first;
  return it->second;
}

void BM_SpmvDeviceCsrSkewed(benchmark::State& state) {
  SkewedFixture& f = skewed_fixture(state.range(0));
  device::DeviceContext ctx;
  sparse::DeviceCsr dev(ctx, f.csr);
  device::DeviceBuffer<real> dx(ctx, std::span<const real>(f.x));
  device::DeviceBuffer<real> dy(ctx, f.y.size());
  for (auto _ : state) {
    sparse::device_csrmv(ctx, dev, dx.data(), dy.data());
    benchmark::DoNotOptimize(dy.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.nnz());
}

void BM_SpmvDeviceCsrSkewedBalanced(benchmark::State& state) {
  SkewedFixture& f = skewed_fixture(state.range(0));
  device::DeviceContext ctx;
  sparse::DeviceCsr dev(ctx, f.csr);
  device::DeviceBuffer<real> dx(ctx, std::span<const real>(f.x));
  device::DeviceBuffer<real> dy(ctx, f.y.size());
  for (auto _ : state) {
    sparse::device_csrmv_balanced(ctx, dev, dx.data(), dy.data());
    benchmark::DoNotOptimize(dy.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.nnz());
}

void BM_Coo2CsrDevice(benchmark::State& state) {
  Fixture& f = fixture(state.range(0));
  device::DeviceContext ctx;
  sparse::DeviceCoo dcoo(ctx, f.coo);
  for (auto _ : state) {
    sparse::DeviceCsr out;
    sparse::device_coo2csr(ctx, dcoo, out);
    benchmark::DoNotOptimize(out.values.data());
  }
}

}  // namespace

BENCHMARK(BM_SpmvCsr)->Arg(1000)->Arg(8000);
BENCHMARK(BM_SpmvCoo)->Arg(1000)->Arg(8000);
BENCHMARK(BM_SpmvDeviceCsr)->Arg(1000)->Arg(8000);
BENCHMARK(BM_SpmvDeviceCsrSkewed)->Arg(1000)->Arg(8000);
BENCHMARK(BM_SpmvDeviceCsrSkewedBalanced)->Arg(1000)->Arg(8000);
BENCHMARK(BM_Coo2CsrDevice)->Arg(8000);
