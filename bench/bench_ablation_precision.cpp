// Mixed-precision ladder ablation: fp64 vs fp32 (fp64 accumulate) vs
// bf16-emulated storage on the eigensolver hot path (DESIGN.md §13).
//
// For each of the four paper-shaped datasets plus a power-law graph, the
// pipeline runs once per precision rung on a single simulated device and
// once on a 4-device group, with the deterministic kernel cost model on.
// Per rung the bench reports the modeled seconds and width-equivalent bytes
// of the SpMV stage (kernel + staging, attributed to the spmv.* sites), the
// eigenvalue error and label ARI against the fp64 run, the fp64 refinement
// residual, and whether the sharded labels are byte-identical to the
// single-device labels (they must be, at every rung).
//
// Published gauges (aggregated over the datasets, single-device runs):
//   precision.<rung>.spmv_stage_seconds  modeled spmv.* seconds
//   precision.<rung>.spmv_stage_bytes    width-equivalent spmv.* bytes:
//       each site's modeled traffic scaled by bytes_per_scalar()/8, which
//       isolates the narrowed value stream from the fixed int64 structure
//       traffic a CSR kernel must move at any rung
//   precision.<rung>.spmv_speedup        fp64 seconds / rung seconds
//   precision.<rung>.max_eig_err         max |lambda - lambda_fp64|
//   precision.<rung>.min_ari             min ARI(labels, labels_fp64)
// The precision_smoke CTest and the perf_regression gate judge the ladder
// from these gauges alone (tools/check_trace.py --expect-gauge /
// --expect-bytes-ratio).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/precision.h"
#include "core/spectral.h"
#include "data/powerlaw.h"
#include "data/sbm.h"
#include "data/social.h"
#include "device/device_group.h"
#include "graph/components.h"

namespace {

using namespace fastsc;

struct Dataset {
  std::string name;
  sparse::Coo w;
  index_t k;
};

std::vector<Dataset> make_datasets(index_t n, std::uint64_t seed) {
  std::vector<Dataset> out;
  {
    const data::SbmGraph g = data::make_social_graph(
        data::fb_like_params(n, 5, seed));
    out.push_back({"fb-like", g.w, 5});
  }
  {
    const data::SbmGraph g = data::make_social_graph(
        data::dblp_like_params(n + n / 4, 6, seed));
    out.push_back({"dblp-like", g.w, 6});
  }
  {
    data::SbmParams p;
    p.block_sizes = data::equal_blocks(n - n / 8, 4);
    p.p_in = 0.25;
    p.p_out = 0.01;
    p.seed = seed;
    out.push_back({"syn-sbm", data::make_sbm(p).w, 4});
  }
  {
    data::SbmParams p;
    p.block_sizes = data::equal_blocks(n, 8);
    p.p_in = 0.2;
    p.p_out = 0.005;
    p.seed = seed + 1;
    out.push_back({"syn-k8", data::make_sbm(p).w, 8});
  }
  {
    const data::PowerlawGraph g = data::make_powerlaw(
        {.n = n, .avg_degree = 8.0, .seed = seed + 2});
    out.push_back({"powerlaw", g.w, 4});
  }
  for (Dataset& d : out) {
    std::vector<index_t> old_of_new;
    d.w = graph::largest_component(d.w, old_of_new);
  }
  return out;
}

struct RungRun {
  std::string rung;
  core::SpectralResult result;
  double spmv_seconds = 0;      // modeled kernel + staging, spmv.* sites
  double spmv_width_bytes = 0;  // width-equivalent bytes, spmv.* sites
  index_t matvecs = 0;          // eigensolver matvec count (for per-wave
                                // normalization: rungs converge along
                                // slightly different restart paths)
  double pipeline_seconds = 0;  // single-device modeled makespan
  double sharded_seconds = 0;   // 4-device modeled makespan
  bool sharded_labels_match = false;
};

bool is_spmv_site(const std::string& site) {
  return site.rfind("spmv.", 0) == 0;
}

RungRun run_rung(const Dataset& ds, const std::string& rung, index_t devices,
                 double compute_rate, std::uint64_t seed) {
  core::SpectralConfig cfg;
  cfg.num_clusters = ds.k;
  cfg.backend = core::Backend::kDevice;
  cfg.seed = seed;
  FASTSC_CHECK(parse_precision_policy(rung, cfg.precision),
               "bad precision spec: " + rung);

  RungRun r;
  r.rung = rung;
  // Both legs run the modeled kernel cost (seconds are a pure function of
  // the bytes each kernel streams), so the speedup gauge measures the
  // ladder's byte savings, not host wall-clock noise.
  {
    device::DeviceContext root(1);
    root.set_kernel_cost_model(compute_rate,
                               bench::kModeledLaunchLatencySeconds);
    r.result = core::spectral_cluster_graph(ds.w, cfg, &root);
    r.pipeline_seconds = root.counters_snapshot().modeled_pipeline_seconds();
    r.matvecs = std::max<index_t>(1, r.result.eig_stats.matvec_count);
    for (const obs::SiteReport& s : root.attribution().report()) {
      if (!is_spmv_site(s.site)) continue;
      r.spmv_seconds += s.stats.total_seconds();
      const double bps = s.stats.bytes_per_scalar();
      r.spmv_width_bytes +=
          s.stats.total_bytes() * (bps > 0 ? bps / 8.0 : 1.0);
    }
  }
  {
    device::DeviceContext root(1);
    root.set_kernel_cost_model(compute_rate,
                               bench::kModeledLaunchLatencySeconds);
    cfg.num_devices = devices;
    const core::SpectralResult sharded =
        core::spectral_cluster_graph(ds.w, cfg, &root);
    bench::check_no_single_device_rung(sharded);
    r.sharded_seconds =
        device::DeviceGroup(root, static_cast<usize>(devices))
            .max_modeled_pipeline_seconds();
    r.sharded_labels_match =
        sharded.labels.size() == r.result.labels.size() &&
        std::memcmp(sharded.labels.data(), r.result.labels.data(),
                    r.result.labels.size() * sizeof(index_t)) == 0;
  }
  return r;
}

double max_eig_err(const core::SpectralResult& a,
                   const core::SpectralResult& b) {
  double err = 0;
  const usize m = std::min(a.eigenvalues.size(), b.eigenvalues.size());
  for (usize i = 0; i < m; ++i) {
    err = std::max(err, std::abs(static_cast<double>(a.eigenvalues[i]) -
                                 static_cast<double>(b.eigenvalues[i])));
  }
  return err;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastsc;
  CliParser cli(
      "bench_ablation_precision: fp64 vs fp32 vs bf16 storage on the "
      "eigensolver hot path — modeled SpMV cost, eigenpair agreement, and "
      "label stability across precision rungs and device counts");
  const bool run = cli.parse(argc, argv);
  bench::CommonFlags flags =
      bench::CommonFlags::parse(cli, /*default_k=*/5, /*default_devices=*/4);
  // Default n keeps the waves bandwidth-dominated: below ~4k nodes the
  // modeled per-launch latency (~5us) eats the byte savings and the ladder
  // speedup under-reads relative to the paper-scale datasets.
  const auto base_n = cli.get_int("n", 6000, "base node count per dataset "
                                            "(scaled by --scale)");
  const auto compute_rate = cli.get_double(
      "compute-rate", 150e9,
      "modeled device compute bandwidth in bytes/s (deterministic kernel "
      "cost model)");
  const auto precision = cli.get_string(
      "precision", "",
      "run a single rung, e.g. fp32 or 'fp32,kmeans=fp64' "
      "(default: ablate fp64, fp32, bf16)");
  if (!run) {
    cli.print_help();
    return 0;
  }
  cli.check_unknown();

  const auto n =
      static_cast<index_t>(static_cast<double>(base_n) * flags.scale);
  std::vector<std::string> rungs;
  if (precision.empty()) {
    rungs = {"fp64", "fp32", "bf16"};
  } else {
    rungs = {precision};
    if (precision != "fp64") rungs.insert(rungs.begin(), "fp64");
  }

  // Suppress tracing during the ablation loops: every run builds a fresh
  // context whose virtual clocks restart at zero, so replays on the same
  // trace tids would overlap.  Only the final instrumented run is traced.
  const bool tracing = obs::trace_enabled();
  if (tracing) obs::trace().set_enabled(false);

  struct Accum {
    // Per-matvec (wave) seconds are summed across datasets so each dataset
    // contributes its own wave cost: pooling raw seconds and matvec counts
    // would let a sparse dataset's many cheap waves swamp the mean.  The
    // aggregate speedup is then "one wave on every dataset" fp64 vs rung.
    double fp64_per_mv_seconds = 0;
    double per_mv_seconds = 0;
    double spmv_seconds = 0;
    double spmv_width_bytes = 0;
    double max_err = 0;
    double min_ari = 1.0;
    bool all_sharded_match = true;
  };
  std::map<std::string, Accum> accum;

  std::vector<TextTable> tables;
  for (const Dataset& ds : make_datasets(n, flags.seed)) {
    std::fprintf(stderr, "[bench] %s: n=%lld nnz=%lld k=%lld\n",
                 ds.name.c_str(), static_cast<long long>(ds.w.rows),
                 static_cast<long long>(ds.w.nnz()),
                 static_cast<long long>(ds.k));
    std::vector<RungRun> runs;
    for (const std::string& rung : rungs) {
      std::fprintf(stderr, "[bench]   rung %s...\n", rung.c_str());
      runs.push_back(
          run_rung(ds, rung, flags.devices, compute_rate, flags.seed));
    }
    const RungRun& base = runs.front();  // fp64 (always first)

    TextTable table("Precision ladder on " + ds.name +
                    " (n=" + std::to_string(ds.w.rows) +
                    ", nnz=" + std::to_string(ds.w.nnz()) +
                    ", k=" + std::to_string(ds.k) + ")");
    table.header({"Rung", "spmv/s", "mv", "speedup/mv", "spmv bytes",
                  "max|d lambda|", "ARI", "residual", "1dev/s",
                  std::to_string(flags.devices) + "dev/s", "labels=="});
    for (const RungRun& r : runs) {
      const double err = max_eig_err(r.result, base.result);
      const double ari = metrics::adjusted_rand_index(r.result.labels,
                                                      base.result.labels);
      // Speedup is per matvec: the rungs converge along slightly different
      // restart paths, and the stage gauge should measure wave throughput,
      // not convergence-path luck.
      const double per_mv = r.spmv_seconds / static_cast<double>(r.matvecs);
      const double base_per_mv =
          base.spmv_seconds / static_cast<double>(base.matvecs);
      table.row({r.rung, TextTable::fmt_seconds(r.spmv_seconds),
                 TextTable::fmt(r.matvecs),
                 per_mv > 0 ? TextTable::fmt(base_per_mv / per_mv, 2) + "x"
                            : "-",
                 TextTable::fmt(r.spmv_width_bytes, 0),
                 TextTable::fmt(err, 10), TextTable::fmt(ari, 6),
                 TextTable::fmt(static_cast<double>(r.result.refine_residual),
                                10),
                 TextTable::fmt_seconds(r.pipeline_seconds),
                 TextTable::fmt_seconds(r.sharded_seconds),
                 r.sharded_labels_match ? "yes" : "NO"});
      FASTSC_CHECK(r.sharded_labels_match,
                   "sharded labels diverged from single-device at rung " +
                       r.rung + " on " + ds.name);
      Accum& a = accum[r.rung];
      a.fp64_per_mv_seconds += base_per_mv;
      a.per_mv_seconds += per_mv;
      a.spmv_seconds += r.spmv_seconds;
      a.spmv_width_bytes += r.spmv_width_bytes;
      a.max_err = std::max(a.max_err, err);
      a.min_ari = std::min(a.min_ari, ari);
      a.all_sharded_match = a.all_sharded_match && r.sharded_labels_match;
    }
    table.print();
    std::printf("\n");
    tables.push_back(std::move(table));
  }

  for (const auto& [rung, a] : accum) {
    const std::string prefix = "precision." + rung + ".";
    obs::metrics().set_gauge(prefix + "spmv_stage_seconds", a.spmv_seconds);
    obs::metrics().set_gauge(prefix + "spmv_stage_bytes", a.spmv_width_bytes);
    obs::metrics().set_gauge(
        prefix + "spmv_speedup",
        a.per_mv_seconds > 0 ? a.fp64_per_mv_seconds / a.per_mv_seconds : 0.0);
    obs::metrics().set_gauge(prefix + "max_eig_err", a.max_err);
    obs::metrics().set_gauge(prefix + "min_ari", a.min_ari);
    obs::metrics().set_gauge(prefix + "sharded_labels_match",
                             a.all_sharded_match ? 1.0 : 0.0);
  }

  // One final instrumented single-device run (the narrowest requested rung
  // on the first dataset) so the artifacts carry device books and, when
  // tracing, a complete virtual timeline.
  {
    if (tracing) obs::trace().set_enabled(true);
    device::DeviceContext ctx(static_cast<usize>(flags.workers));
    const Dataset ds = make_datasets(n, flags.seed).front();
    core::SpectralConfig cfg;
    cfg.num_clusters = ds.k;
    cfg.backend = core::Backend::kDevice;
    cfg.seed = flags.seed;
    cfg.trace = obs::trace_enabled();
    FASTSC_CHECK(parse_precision_policy(rungs.back(), cfg.precision),
                 "bad precision spec: " + rungs.back());
    (void)core::spectral_cluster_graph(ds.w, cfg, &ctx);
    bench::write_observability_artifacts(flags, ctx);
    bench::maybe_write_run_report(flags, "ablation_precision", {},
                                  std::move(tables), &ctx);
  }
  return 0;
}
