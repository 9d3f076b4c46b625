// Micro bench: row-chunked vs whole-row merge-path CSR SpMV split on a
// power-law graph.
//
// Splitting a wave into equal ROW chunks hands one chunk the hubs of a
// Zipf-degree matrix and the whole wave waits on it.  device_csrmv instead
// gives every worker whole rows of the merge-path cut (sparse/balance.h),
// bounding its share at ceil((rows + nnz) / workers) + max row nnz.  This
// bench reports the worst-wave work of both splits — the quantity that caps
// achievable SpMV parallelism — plus the kernel's wall time, and publishes
// them as metrics gauges (spmv.rowchunk_wave_max_nnz from the model,
// spmv.wave_max_nnz from the kernel) so the perf_smoke CI check can assert
// the >= 2x balance win from the artifacts alone.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "data/powerlaw.h"
#include "sparse/balance.h"
#include "sparse/convert.h"
#include "sparse/spmv.h"

int main(int argc, char** argv) {
  using namespace fastsc;
  CliParser cli(
      "bench_spmv_balance: whole-row merge-path vs row-chunked SpMV balance "
      "on a "
      "power-law (Zipf-degree) graph");
  const bool run = cli.parse(argc, argv);
  bench::CommonFlags flags = bench::CommonFlags::parse(cli, /*default_k=*/8);
  const auto base_n = cli.get_int("n", 20000, "node count (scaled by --scale)");
  const auto avg_degree =
      cli.get_double("avg-degree", 16.0, "target mean degree");
  const auto reps = cli.get_int("reps", 50, "timed SpMV repetitions");
  if (!run) {
    cli.print_help();
    return 0;
  }
  cli.check_unknown();

  // The balance story is about a fixed worker count, so default to 8 lanes
  // rather than whatever the host machine has.
  const index_t workers = flags.workers == 0 ? 8 : flags.workers;
  const auto n = static_cast<index_t>(static_cast<double>(base_n) * flags.scale);

  const data::PowerlawGraph g = data::make_powerlaw(
      {.n = n, .avg_degree = avg_degree, .seed = flags.seed});
  const sparse::Csr csr = sparse::coo_to_csr(g.w);

  device::DeviceContext ctx(static_cast<usize>(workers));
  sparse::DeviceCsr dev(ctx, csr);
  std::vector<real> x(static_cast<usize>(n));
  Rng rng(flags.seed);
  for (real& v : x) v = rng.uniform(-1, 1);
  device::DeviceBuffer<real> dx(ctx, std::span<const real>(x));
  device::DeviceBuffer<real> dy(ctx, static_cast<usize>(n));

  // Modeled worst-wave work of the row-chunked split (entries handled by
  // the busiest worker).
  const index_t chunked =
      sparse::rowchunk_max_span_nnz(csr.row_ptr.data(), 0, csr.rows, workers);
  obs::metrics().set_gauge("spmv.rowchunk_wave_max_nnz",
                           static_cast<double>(chunked));

  // Timed loop; every call publishes its split's spmv.wave_max_nnz /
  // spmv.wave_mean_nnz gauges.
  WallTimer t_bal;
  for (index_t r = 0; r < reps; ++r) {
    sparse::device_csrmv(ctx, dev, dx.data(), dy.data());
  }
  const double bal_seconds = t_bal.seconds();
  const double whole_max = obs::metrics().gauge("spmv.wave_max_nnz").value();
  const double whole_mean = obs::metrics().gauge("spmv.wave_mean_nnz").value();

  const double ratio =
      whole_max > 0 ? static_cast<double>(chunked) / whole_max : 0.0;
  TextTable table("SpMV balance on power-law graph (n=" + std::to_string(n) +
                  ", nnz=" + std::to_string(csr.nnz()) +
                  ", workers=" + std::to_string(workers) + ")");
  table.header({"Split", "max wave nnz", "mean wave nnz", "time/s",
                "balance win"});
  table.row({"row-chunked (modeled)", TextTable::fmt(chunked),
             TextTable::fmt(static_cast<double>(csr.nnz()) /
                                static_cast<double>(workers),
                            1),
             "-", "1.0x (baseline)"});
  table.row({"whole-row merge-path (device_csrmv)",
             TextTable::fmt(static_cast<index_t>(whole_max)),
             TextTable::fmt(whole_mean, 1),
             TextTable::fmt_seconds(bal_seconds),
             TextTable::fmt(ratio, 2) + "x"});
  table.print();

  bench::write_observability_artifacts(flags, ctx);
  bench::maybe_write_run_report(flags, "spmv_balance", {}, {table}, &ctx);
  return 0;
}
