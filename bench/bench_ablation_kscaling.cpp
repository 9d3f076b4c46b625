// Ablation: eigensolver cost vs cluster count k and basis size m (Eq. 10).
//
// The paper's complexity model is (O(m^3) + O(n m^2) + O(nnz m)) x restarts
// with m ~ 2k, and §V.C observes that the CPU-side reverse-communication
// work becomes the bottleneck as k grows.  This bench sweeps k on a fixed
// graph and reports the split between CPU-side RCI time and device SpMV
// time, plus a sweep of the m/k ratio.
#include <cstdio>

#include "bench_common.h"
#include "data/sbm.h"
#include "graph/laplacian.h"
#include "lanczos/rci.h"
#include "sparse/spmv.h"

namespace {

using namespace fastsc;

struct EigRun {
  double total = 0;
  double rci = 0;
  double spmv = 0;
  index_t matvecs = 0;
  index_t restarts = 0;
  bool converged = false;
};

EigRun run_eig(device::DeviceContext& ctx, const sparse::DeviceCsr& p,
               index_t n, index_t k, index_t ncv, std::uint64_t seed) {
  lanczos::LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = k;
  cfg.ncv = ncv;
  cfg.tol = 1e-8;
  cfg.which = lanczos::EigWhich::kLargestAlgebraic;
  cfg.seed = seed;
  lanczos::SymLanczos solver(cfg);

  device::DeviceBuffer<real> dx(ctx, static_cast<usize>(n));
  device::DeviceBuffer<real> dy(ctx, static_cast<usize>(n));

  EigRun out;
  WallTimer total;
  const lanczos::RciRun run =
      lanczos::rci_loop(solver, [&](const real* x, real* y) {
        dx.copy_from_host(std::span<const real>(x, static_cast<usize>(n)));
        sparse::device_csrmv(ctx, p, dx.data(), dy.data());
        dy.copy_to_host(std::span<real>(y, static_cast<usize>(n)));
      });
  (void)solver.extract_eigenvectors();
  out.total = total.seconds();
  out.spmv = run.matvec_seconds;
  out.rci = solver.stats().rci_seconds;
  out.matvecs = solver.stats().matvec_count;
  out.restarts = solver.stats().restart_count;
  out.converged = run.action == lanczos::SymLanczos::Action::kConverged;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastsc;
  CliParser cli(
      "bench_ablation_kscaling: eigensolver cost split vs k and basis size "
      "(the paper's Eq. 10 cost model)");
  const bool run = cli.parse(argc, argv);
  bench::CommonFlags flags = bench::CommonFlags::parse(cli, /*default_k=*/0);
  const auto n = cli.get_int("n", 6000, "node count");
  if (!run) {
    cli.print_help();
    return 0;
  }
  cli.check_unknown();

  data::SbmParams p;
  p.block_sizes = data::equal_blocks(n, 100);
  p.p_in = 0.25;
  p.p_out = 0.005;
  p.seed = flags.seed;
  std::fprintf(stderr, "[bench] generating graph...\n");
  const data::SbmGraph g = data::make_sbm(p);

  device::DeviceContext ctx(static_cast<usize>(flags.workers));
  sparse::DeviceCoo dev_w(ctx, g.w);
  device::DeviceBuffer<real> isd;
  const sparse::DeviceCsr rw = graph::sym_normalized_device(ctx, dev_w, isd);

  TextTable table("Eigensolver cost vs k (n=" + std::to_string(n) +
                  ", m = 2k+1): CPU-side RCI work grows as O(m^3 + n m^2), "
                  "SpMV as O(nnz m)");
  table.header({"k", "total/s", "RCI (CPU)/s", "SpMV+staging/s", "matvecs",
                "restarts", "RCI share"});
  for (const index_t k : {4, 8, 16, 32, 64}) {
    const EigRun r = run_eig(ctx, rw, n, k, 0, flags.seed);
    table.row({TextTable::fmt(k), TextTable::fmt_seconds(r.total),
               TextTable::fmt_seconds(r.rci), TextTable::fmt_seconds(r.spmv),
               TextTable::fmt(r.matvecs), TextTable::fmt(r.restarts),
               TextTable::fmt(100.0 * r.rci / r.total, 3) + "%"});
  }
  table.print();
  std::printf("\n");

  TextTable mtable(
      "Basis-size sweep at k=16: larger m trades more CPU-side work per "
      "restart for fewer restarts");
  mtable.header({"m (ncv)", "total/s", "matvecs", "restarts", "converged"});
  for (const index_t mult : {2, 3, 4, 6}) {
    const index_t ncv = 16 * mult + 1;
    const EigRun r = run_eig(ctx, rw, n, 16, ncv, flags.seed);
    mtable.row({TextTable::fmt(ncv), TextTable::fmt_seconds(r.total),
                TextTable::fmt(r.matvecs), TextTable::fmt(r.restarts),
                r.converged ? "yes" : "no"});
  }
  mtable.print();
  return 0;
}
