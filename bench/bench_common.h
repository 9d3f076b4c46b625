// Shared scaffolding for the paper-table reproduction benches.
//
// Every table bench follows the same shape: build one dataset, run the
// three backends (CUDA-sim / Matlab-like / Python-like) through the public
// pipeline API, and print the paper-shaped tables plus the figure series.
#pragma once

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "core/report.h"
#include "graph/build.h"
#include "core/spectral.h"
#include "metrics/external.h"
#include "obs/metrics.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "sparse/convert.h"

namespace fastsc::bench {

struct CommonFlags {
  index_t k = 0;
  std::uint64_t seed = 42;
  double scale = 1.0;
  bool baselines = true;
  index_t workers = 0;  // 0 = hardware concurrency
  index_t devices = 1;  // SpectralConfig::num_devices
  std::string trace_out;    // Chrome trace-event JSON path ("" = off)
  std::string metrics_out;  // metrics snapshot JSON path ("" = off)
  std::string report_out;   // RunReport JSON path ("" = off)
  std::string faults;       // fault plan spec ("" = none); see src/fault/
  double budget_ms = 0;     // total wall budget in ms (0 = none)

  static CommonFlags parse(CliParser& cli, index_t default_k,
                           index_t default_devices = 1) {
    CommonFlags f;
    f.k = cli.get_int("k", default_k, "number of clusters");
    f.seed = static_cast<std::uint64_t>(
        cli.get_int("seed", 42, "random seed"));
    f.scale = cli.get_double("scale", 1.0,
                             "problem-size multiplier (1.0 = bench default; "
                             "paper sizes need a large machine)");
    f.baselines = cli.get_bool("baselines", true,
                               "run the Matlab/Python-like baselines too");
    f.workers = cli.get_int("workers", 0,
                            "simulated-device worker threads (0 = all cores)");
    f.devices = cli.get_int(
        "devices", default_devices,
        "simulated devices; > 1 runs the graph pipeline row-sharded");
    f.trace_out = cli.get_string(
        "trace-out", "",
        "write a Chrome trace-event / Perfetto JSON timeline here");
    f.metrics_out = cli.get_string(
        "metrics-out", "", "write a metrics-registry JSON snapshot here");
    f.report_out = cli.get_string(
        "report-out", "", "write the machine-readable run report JSON here");
    f.faults = cli.get_string(
        "faults", "",
        "deterministic fault plan, e.g. site=copy.h2d,nth=2,count=2 "
        "(clauses ';'-separated; see src/fault/fault.h)");
    f.budget_ms = cli.get_double(
        "budget-ms", 0,
        "total wall-clock budget per run in ms (0 = none; expiry yields an "
        "anytime partial result)");
    // Tracing must be on before the DeviceContext records its first event so
    // the trace's virtual timeline is complete from time zero.
    if (!f.trace_out.empty()) obs::trace().set_enabled(true);
    return f;
  }
};

/// Drop zero-degree vertices (paper §IV.B: "isolated nodes can be removed
/// from the graph") and keep the truth labels aligned.
inline void prune_isolated(sparse::Coo& w, std::vector<index_t>* truth) {
  std::vector<index_t> old_of_new;
  sparse::Coo pruned = graph::remove_isolated(w, old_of_new);
  if (pruned.rows == w.rows) return;
  std::fprintf(stderr, "[bench] removed %lld isolated vertices\n",
               static_cast<long long>(w.rows - pruned.rows));
  if (truth != nullptr && !truth->empty()) {
    std::vector<index_t> kept;
    kept.reserve(old_of_new.size());
    for (index_t old : old_of_new) {
      kept.push_back((*truth)[static_cast<usize>(old)]);
    }
    *truth = std::move(kept);
  }
  w = std::move(pruned);
}

/// Fold --budget-ms into a SpectralConfig's wall deadline.
inline void apply_budget_flags(core::SpectralConfig& cfg,
                               const CommonFlags& flags) {
  if (flags.budget_ms > 0) cfg.budget.wall_ms = flags.budget_ms;
}

inline std::vector<core::Backend> selected_backends(bool baselines) {
  std::vector<core::Backend> backends{core::Backend::kDevice};
  if (baselines) {
    backends.push_back(core::Backend::kMatlabLike);
    backends.push_back(core::Backend::kPythonLike);
  }
  return backends;
}

/// Run the graph-input pipeline for each backend and assemble the report.
inline core::BackendRuns run_graph_backends(const std::string& dataset,
                                            const sparse::Coo& w, index_t k,
                                            const CommonFlags& flags,
                                            device::DeviceContext& ctx) {
  core::BackendRuns runs;
  runs.dataset = dataset;
  runs.nodes = w.rows;
  runs.edges = w.nnz();
  runs.clusters = k;
  for (core::Backend b : selected_backends(flags.baselines)) {
    core::SpectralConfig cfg;
    cfg.num_clusters = k;
    cfg.backend = b;
    cfg.seed = flags.seed;
    cfg.num_devices = flags.devices;
    if (!flags.faults.empty()) {
      cfg.faults = fault::FaultPlan::parse(flags.faults);
    }
    apply_budget_flags(cfg, flags);
    std::fprintf(stderr, "[bench] %s: running %s backend...\n",
                 dataset.c_str(), core::backend_name(b).c_str());
    runs.runs.emplace_back(b, core::spectral_cluster_graph(w, cfg, &ctx));
  }
  return runs;
}

/// Run the points-input pipeline (DTI mode) for each backend.
inline core::BackendRuns run_points_backends(
    const std::string& dataset, const real* x, index_t n, index_t d,
    const graph::EdgeList& edges, index_t k, const CommonFlags& flags,
    device::DeviceContext& ctx) {
  core::BackendRuns runs;
  runs.dataset = dataset;
  runs.nodes = n;
  runs.edges = 2 * edges.size();
  runs.clusters = k;
  for (core::Backend b : selected_backends(flags.baselines)) {
    core::SpectralConfig cfg;
    cfg.num_clusters = k;
    cfg.backend = b;
    cfg.seed = flags.seed;
    cfg.num_devices = flags.devices;
    if (!flags.faults.empty()) {
      cfg.faults = fault::FaultPlan::parse(flags.faults);
    }
    apply_budget_flags(cfg, flags);
    cfg.similarity.measure = graph::SimilarityMeasure::kCrossCorrelation;
    std::fprintf(stderr, "[bench] %s: running %s backend...\n",
                 dataset.c_str(), core::backend_name(b).c_str());
    runs.runs.emplace_back(
        b, core::spectral_cluster_points(x, n, d, edges, cfg, &ctx));
  }
  return runs;
}

/// Launch latency of the deterministic kernel cost model the modeled
/// benches install (DeviceContext::set_kernel_cost_model).
inline constexpr double kModeledLaunchLatencySeconds = 5.0e-6;

/// Fail unless `r` ran on every device it asked for: a run that fell back
/// to the caller's context alone (degradation action "single-device")
/// would pass one device's books off as a group's.
inline void check_no_single_device_rung(const core::SpectralResult& r) {
  for (const core::DegradationEvent& e : r.degradation.events) {
    FASTSC_CHECK(e.action != "single-device",
                 "multi-device run fell back to one device: " + e.reason);
  }
}

/// Speedup summary of the device backend over each baseline, per stage.
inline TextTable speedup_table(const core::BackendRuns& runs) {
  TextTable table("Device speedup per stage on " + runs.dataset);
  table.header({"Stage", "vs Matlab", "vs Python"});
  const core::SpectralResult* device = nullptr;
  const core::SpectralResult* matlab = nullptr;
  const core::SpectralResult* python = nullptr;
  for (const auto& [b, r] : runs.runs) {
    if (b == core::Backend::kDevice) device = &r;
    if (b == core::Backend::kMatlabLike) matlab = &r;
    if (b == core::Backend::kPythonLike) python = &r;
  }
  if (device == nullptr) return table;
  for (const std::string& stage : device->clock.stages()) {
    const double dev_t = device->clock.seconds(stage);
    auto cell = [&](const core::SpectralResult* other) -> std::string {
      if (other == nullptr || dev_t <= 0) return "-";
      return TextTable::fmt_speedup(other->clock.seconds(stage) / dev_t);
    };
    table.row({stage, cell(matlab), cell(python)});
  }
  return table;
}

/// The standard table block every single-dataset bench emits, in print order.
inline std::vector<TextTable> standard_report_tables(
    const core::BackendRuns& runs, bool include_similarity,
    const std::vector<index_t>* truth, const sparse::Csr* w) {
  std::vector<TextTable> tables;
  tables.push_back(core::stage_table(runs, include_similarity));
  tables.push_back(core::figure_series(runs));
  tables.push_back(speedup_table(runs));
  tables.push_back(core::communication_table({runs}));
  if (truth != nullptr && w != nullptr) {
    tables.push_back(core::quality_table(runs, *truth, *w));
  }
  return tables;
}

inline void print_tables(const std::vector<TextTable>& tables) {
  for (const TextTable& t : tables) {
    t.print();
    std::printf("\n");
  }
}

/// Print the standard block every table bench emits.
inline void print_standard_report(const core::BackendRuns& runs,
                                  bool include_similarity,
                                  const std::vector<index_t>* truth,
                                  const sparse::Csr* w) {
  print_tables(standard_report_tables(runs, include_similarity, truth, w));
}

/// Write whatever observability artifacts the flags ask for.  Call once at
/// the end of a bench, after all runs finished.  The metrics registry is
/// refreshed from `ctx` first so both the metrics snapshot and the trace
/// cross-check (tools/check_trace.py --metrics) see final counter values.
inline void write_observability_artifacts(const CommonFlags& flags,
                                          device::DeviceContext& ctx) {
  // Per-site cost attribution is always printed: it is the kernel-level
  // breakdown the paper's tables motivate, and it costs nothing to render.
  core::attribution_table(core::collect_attribution(ctx)).print();
  std::printf("\n");
  if (flags.trace_out.empty() && flags.metrics_out.empty()) return;
  obs::publish_device_context(ctx, obs::metrics());
  if (!flags.trace_out.empty()) {
    if (obs::trace().write_json_file(flags.trace_out)) {
      std::fprintf(stderr, "[bench] wrote trace to %s (%zu events)\n",
                   flags.trace_out.c_str(), obs::trace().event_count());
    }
  }
  if (!flags.metrics_out.empty()) {
    if (obs::metrics().write_json_file(flags.metrics_out)) {
      std::fprintf(stderr, "[bench] wrote metrics to %s\n",
                   flags.metrics_out.c_str());
    }
  }
}

/// Write the RunReport JSON if --report-out was given.  When a context is
/// supplied, the report carries the attribution section (per-site costs +
/// device-counter totals of the context and its peers) that
/// tools/check_trace.py --report validates.
inline void maybe_write_run_report(const CommonFlags& flags,
                                   const std::string& bench,
                                   std::vector<core::BackendRuns> datasets,
                                   std::vector<TextTable> tables,
                                   const device::DeviceContext* ctx) {
  if (flags.report_out.empty()) return;
  core::RunReport report;
  report.bench = bench;
  report.datasets = std::move(datasets);
  report.tables = std::move(tables);
  if (ctx != nullptr) report.attribution = core::collect_attribution(*ctx);
  if (core::write_run_report_json_file(report, flags.report_out)) {
    std::fprintf(stderr, "[bench] wrote run report to %s\n",
                 flags.report_out.c_str());
  }
}

}  // namespace fastsc::bench
