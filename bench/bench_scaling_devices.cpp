// Multi-device scaling bench: the Table VII communication-vs-computation
// story extended to N simulated devices.
//
// For each dataset (a DBLP-scale social graph and a power-law graph) the
// full sharded pipeline runs on 1, 2, 4, and 8 devices (a fresh root
// context and its peers) with the deterministic kernel cost model on, so
// the reported times are a pure function of the partition and the transfer
// model — no host wall-clock noise.  Per device count the bench prints the
// modeled compute time, the PCIe staging time, the peer-to-peer exchange
// time and the pipeline makespan (slowest device), plus the modeled
// speedup over the single-device run.  The speedup points are published as
// gauges (scaling.speedup_2dev/4dev/8dev) so the scaling_smoke CTest and
// the perf_regression gate can judge the curve from the metrics artifact
// alone.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/spectral.h"
#include "data/powerlaw.h"
#include "data/social.h"
#include "device/device_group.h"
#include "graph/components.h"

namespace {

using namespace fastsc;

struct ScalingPoint {
  index_t devices = 0;
  double kernel_seconds = 0;
  double pcie_seconds = 0;  // modeled H2D+D2H link time
  double d2d_seconds = 0;   // modeled peer-exchange link time
  double pipeline_seconds = 0;  // slowest device's modeled makespan
  usize d2d_bytes = 0;
};

core::SpectralConfig scaling_config(index_t k, index_t devices,
                                    std::uint64_t seed) {
  core::SpectralConfig cfg;
  cfg.num_clusters = k;
  cfg.backend = core::Backend::kDevice;
  cfg.num_devices = devices;
  cfg.seed = seed;
  return cfg;
}

ScalingPoint run_point(const sparse::Coo& w, index_t k, index_t devices,
                       double compute_rate, std::uint64_t seed) {
  // A fresh root per point; its peers inherit the cost model.
  device::DeviceContext root(1);
  root.set_kernel_cost_model(compute_rate,
                             bench::kModeledLaunchLatencySeconds);
  const core::SpectralResult r = core::spectral_cluster_graph(
      w, scaling_config(k, devices, seed), &root);
  bench::check_no_single_device_rung(r);
  const device::DeviceGroup group(root, static_cast<usize>(devices));

  ScalingPoint p;
  p.devices = devices;
  const device::DeviceCounters c = group.rollup_counters();
  p.kernel_seconds = c.kernel_seconds;
  p.pcie_seconds = c.modeled_transfer_seconds - c.modeled_d2d_seconds;
  p.d2d_seconds = c.modeled_d2d_seconds;
  p.pipeline_seconds = group.max_modeled_pipeline_seconds();
  p.d2d_bytes = c.bytes_d2d;
  for (usize i = 0; i < group.size(); ++i) {
    const device::DeviceCounters ci = group.device(i).counters_snapshot();
    std::fprintf(stderr,
                 "[bench]   dev%zu busy=%.4fs kernel=%.4fs link=%.4fs "
                 "(d2d=%.4fs)\n",
                 i, ci.modeled_pipeline_seconds(), ci.kernel_seconds,
                 ci.modeled_transfer_seconds, ci.modeled_d2d_seconds);
  }
  // The run must stay correct while it scales; a wrong label count would
  // make every speedup number meaningless.
  FASTSC_CHECK(r.labels.size() == static_cast<usize>(w.rows),
               "sharded run dropped vertices");
  return p;
}

void publish_gauges(const std::string& prefix,
                    const std::vector<ScalingPoint>& points) {
  const double t1 = points.front().pipeline_seconds;
  for (const ScalingPoint& p : points) {
    if (p.devices == 1) continue;
    const std::string key =
        prefix + "speedup_" + std::to_string(p.devices) + "dev";
    obs::metrics().set_gauge(
        key, p.pipeline_seconds > 0 ? t1 / p.pipeline_seconds : 0.0);
    obs::metrics().set_gauge(
        prefix + "d2d_bytes_" + std::to_string(p.devices) + "dev",
        static_cast<double>(p.d2d_bytes));
  }
}

TextTable scaling_table(const std::string& dataset, const sparse::Coo& w,
                        const std::vector<ScalingPoint>& points) {
  TextTable table("Modeled multi-device scaling on " + dataset +
                  " (n=" + std::to_string(w.rows) +
                  ", nnz=" + std::to_string(w.nnz()) + ")");
  table.header({"Devices", "compute/s", "PCIe/s", "D2D/s", "pipeline/s",
                "speedup"});
  const double t1 = points.front().pipeline_seconds;
  for (const ScalingPoint& p : points) {
    table.row({TextTable::fmt(p.devices),
               TextTable::fmt_seconds(p.kernel_seconds),
               TextTable::fmt_seconds(p.pcie_seconds),
               TextTable::fmt_seconds(p.d2d_seconds),
               TextTable::fmt_seconds(p.pipeline_seconds),
               p.pipeline_seconds > 0
                   ? TextTable::fmt(t1 / p.pipeline_seconds, 2) + "x"
                   : "-"});
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastsc;
  CliParser cli(
      "bench_scaling_devices: modeled comm/comp breakdown and speedup of "
      "the sharded pipeline over 1/2/4/8 simulated devices");
  const bool run = cli.parse(argc, argv);
  bench::CommonFlags flags = bench::CommonFlags::parse(cli, /*default_k=*/8);
  const auto base_n =
      cli.get_int("n", 8192, "node count per dataset (scaled by --scale)");
  const auto compute_rate = cli.get_double(
      "compute-rate", 150e9,
      "modeled device compute bandwidth in bytes/s (deterministic kernel "
      "cost model)");
  const auto max_devices =
      cli.get_int("max-devices", 8, "largest device count (power of two)");
  if (!run) {
    cli.print_help();
    return 0;
  }
  cli.check_unknown();

  const auto n =
      static_cast<index_t>(static_cast<double>(base_n) * flags.scale);
  std::vector<index_t> device_counts;
  for (index_t d = 1; d <= max_devices; d *= 2) device_counts.push_back(d);

  struct Dataset {
    std::string name;
    std::string gauge_prefix;
    sparse::Coo w;
  };
  std::vector<Dataset> datasets;
  {
    const data::SbmGraph g =
        data::make_social_graph(data::dblp_like_params(n, flags.k, flags.seed));
    std::vector<index_t> old_of_new;
    datasets.push_back(
        {"dblp-like", "scaling.", graph::largest_component(g.w, old_of_new)});
  }
  {
    const data::PowerlawGraph g = data::make_powerlaw(
        {.n = n, .avg_degree = 8.0, .seed = flags.seed});
    std::vector<index_t> old_of_new;
    datasets.push_back({"powerlaw", "scaling.powerlaw.",
                        graph::largest_component(g.w, old_of_new)});
  }

  // Suppress tracing during the timing loops: every run_point builds a
  // fresh root context whose devices' virtual clocks restart at zero, so
  // replays on the same trace tids would overlap and break the track
  // discipline the smoke check asserts.  Only the final instrumented run
  // below is traced.
  const bool tracing = obs::trace_enabled();
  if (tracing) obs::trace().set_enabled(false);

  std::vector<TextTable> tables;
  for (const Dataset& ds : datasets) {
    std::vector<ScalingPoint> points;
    for (const index_t d : device_counts) {
      std::fprintf(stderr, "[bench] %s: %lld device(s)...\n",
                   ds.name.c_str(), static_cast<long long>(d));
      points.push_back(
          run_point(ds.w, flags.k, d, compute_rate, flags.seed));
    }
    publish_gauges(ds.gauge_prefix, points);
    tables.push_back(scaling_table(ds.name, ds.w, points));
  }
  bench::print_tables(tables);

  // One final instrumented 4-device run so the artifacts carry a rollup of
  // the per-device books (device.* gauges = the root and its peers) and,
  // when tracing, the per-device track discipline the smoke check asserts.
  {
    if (tracing) obs::trace().set_enabled(true);
    device::DeviceContext root(1);
    root.set_kernel_cost_model(compute_rate,
                               bench::kModeledLaunchLatencySeconds);
    core::SpectralConfig cfg = scaling_config(flags.k, 4, flags.seed);
    cfg.trace = obs::trace_enabled();
    bench::check_no_single_device_rung(
        core::spectral_cluster_graph(datasets[0].w, cfg, &root));
    obs::publish_device_context(root, obs::metrics());
    bench::maybe_write_run_report(flags, "scaling_devices", {}, tables,
                                  &root);
  }

  if (!flags.trace_out.empty() &&
      obs::trace().write_json_file(flags.trace_out)) {
    std::fprintf(stderr, "[bench] wrote trace to %s (%zu events)\n",
                 flags.trace_out.c_str(), obs::trace().event_count());
  }
  if (!flags.metrics_out.empty() &&
      obs::metrics().write_json_file(flags.metrics_out)) {
    std::fprintf(stderr, "[bench] wrote metrics to %s\n",
                 flags.metrics_out.c_str());
  }
  return 0;
}
