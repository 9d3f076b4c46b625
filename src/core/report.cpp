#include "core/report.h"

#include <fstream>
#include <ostream>

#include "common/log.h"
#include "metrics/cut.h"
#include "metrics/external.h"
#include "obs/json.h"

namespace fastsc::core {

TextTable stage_table(const BackendRuns& runs, bool include_similarity) {
  TextTable table("Running time of spectral clustering on " + runs.dataset +
                  " (n=" + std::to_string(runs.nodes) +
                  ", nnz=" + std::to_string(runs.edges) +
                  ", k=" + std::to_string(runs.clusters) + ")");
  std::vector<std::string> header{"Time/s"};
  for (const auto& [backend, result] : runs.runs) {
    header.push_back(backend_name(backend));
  }
  table.header(std::move(header));

  std::vector<std::string> stages;
  if (include_similarity) stages.push_back(kStageSimilarity);
  stages.push_back(kStageEigensolver);
  stages.push_back(kStageKmeans);
  const std::map<std::string, std::string> pretty{
      {kStageSimilarity, "Compute Similarity Matrix"},
      {kStageEigensolver, "Sparse Eigensolver"},
      {kStageKmeans, "K-means Clustering"},
  };

  for (const std::string& stage : stages) {
    std::vector<std::string> row{pretty.at(stage)};
    for (const auto& [backend, result] : runs.runs) {
      row.push_back(TextTable::fmt_seconds(result.clock.seconds(stage)));
    }
    table.row(std::move(row));
  }
  return table;
}

TextTable figure_series(const BackendRuns& runs) {
  TextTable table("Figure series: per-stage times on " + runs.dataset);
  table.header({"dataset", "backend", "stage", "seconds"});
  for (const auto& [backend, result] : runs.runs) {
    for (const std::string& stage : result.clock.stages()) {
      table.row({runs.dataset, backend_name(backend), stage,
                 TextTable::fmt_seconds(result.clock.seconds(stage))});
    }
  }
  return table;
}

TextTable communication_table(const std::vector<BackendRuns>& all_runs) {
  TextTable table(
      "Comparison between data communication time and computation time "
      "(device backend; communication = modeled PCIe time, computation = "
      "total stage time minus communication)");
  table.header({"Dataset", "Communication/s", "Computation/s", "H2D MB",
                "D2H MB", "Transfers"});
  for (const BackendRuns& runs : all_runs) {
    for (const auto& [backend, result] : runs.runs) {
      if (backend != Backend::kDevice) continue;
      const auto& c = result.device_counters;
      const double comm = c.modeled_transfer_seconds;
      const double total = result.clock.total_seconds();
      const double comp = total > comm ? total - comm : 0;
      table.row({runs.dataset, TextTable::fmt_seconds(comm),
                 TextTable::fmt_seconds(comp),
                 TextTable::fmt(static_cast<double>(c.bytes_h2d) / 1e6, 4),
                 TextTable::fmt(static_cast<double>(c.bytes_d2h) / 1e6, 4),
                 TextTable::fmt(static_cast<index_t>(c.transfers_h2d +
                                                     c.transfers_d2h))});
    }
  }
  return table;
}

TextTable dataset_table(const std::vector<BackendRuns>& all_runs) {
  TextTable table("Datasets");
  table.header({"Dataset", "Nodes", "Edges", "Clusters"});
  for (const BackendRuns& runs : all_runs) {
    table.row({runs.dataset, TextTable::fmt(runs.nodes),
               TextTable::fmt(runs.edges), TextTable::fmt(runs.clusters)});
  }
  return table;
}

AttributionReport collect_attribution(const device::DeviceContext& ctx) {
  AttributionReport a;
  a.present = true;
  a.roofline = ctx.attribution().roofline();
  std::map<std::string, obs::SiteStats> merged;
  for (const device::DeviceContext* d : ctx.devices()) {
    for (const obs::SiteReport& r : d->attribution().report()) {
      merged[r.site] += r.stats;
    }
    a.totals += d->attribution().totals();
    device::accumulate_counters(a.device_totals, d->counters_snapshot());
  }
  a.sites.reserve(merged.size());
  for (const auto& [site, stats] : merged) {
    a.sites.push_back({site, stats, obs::arithmetic_intensity(stats),
                       obs::roofline_utilization(stats, a.roofline)});
  }
  return a;
}

TextTable attribution_table(const AttributionReport& a) {
  TextTable table(
      "Kernel-level cost attribution (roofline vs "
      "peak=" + TextTable::fmt(a.roofline.peak_flops / 1e12, 3) +
      " Tflop/s, bw=" +
      TextTable::fmt(a.roofline.bandwidth_bytes_per_sec / 1e9, 2) + " GB/s)");
  table.header({"Site", "Launches", "Xfers", "MB moved", "Gflops",
                "MB touched", "Seconds", "Flops/B", "Roofline"});
  auto row_for = [&](const std::string& name, const obs::SiteStats& s,
                     double intensity, double utilization) {
    table.row({name, TextTable::fmt(static_cast<index_t>(s.kernel_launches)),
               TextTable::fmt(
                   static_cast<index_t>(s.transfers_h2d + s.transfers_d2h)),
               TextTable::fmt(
                   static_cast<double>(s.bytes_h2d + s.bytes_d2h) / 1e6, 3),
               TextTable::fmt(s.flops / 1e9, 4),
               TextTable::fmt((s.bytes_read + s.bytes_written) / 1e6, 3),
               TextTable::fmt_seconds(s.total_seconds()),
               TextTable::fmt(intensity, 3),
               utilization > 0 ? TextTable::fmt(utilization, 4) : "-"});
  };
  for (const obs::SiteReport& r : a.sites) {
    row_for(r.site, r.stats, r.arithmetic_intensity, r.roofline_utilization);
  }
  row_for("TOTAL", a.totals, obs::arithmetic_intensity(a.totals),
          obs::roofline_utilization(a.totals, a.roofline));
  return table;
}

namespace {

void write_device_counters(obs::JsonWriter& w,
                           const device::DeviceCounters& c) {
  w.begin_object();
  w.field("bytes_h2d", std::uint64_t{c.bytes_h2d});
  w.field("bytes_d2h", std::uint64_t{c.bytes_d2h});
  w.field("bytes_d2d", std::uint64_t{c.bytes_d2d});
  w.field("transfers_h2d", std::uint64_t{c.transfers_h2d});
  w.field("transfers_d2h", std::uint64_t{c.transfers_d2h});
  w.field("transfers_d2d", std::uint64_t{c.transfers_d2d});
  w.field("measured_transfer_seconds", c.measured_transfer_seconds);
  w.field("modeled_transfer_seconds", c.modeled_transfer_seconds);
  w.field("modeled_d2d_seconds", c.modeled_d2d_seconds);
  w.field("kernel_seconds", c.kernel_seconds);
  w.field("kernel_launches", std::uint64_t{c.kernel_launches});
  w.field("modeled_pipeline_seconds", c.modeled_pipeline_seconds());
  w.field("transfer_retries", std::uint64_t{c.transfer_retries});
  w.field("live_bytes", std::uint64_t{c.live_bytes});
  w.field("peak_bytes", std::uint64_t{c.peak_bytes});
  w.field("total_allocations", std::uint64_t{c.total_allocations});
  w.end_object();
}

void write_run(obs::JsonWriter& w, Backend backend,
               const SpectralResult& r) {
  w.begin_object();
  w.field("backend", backend_name(backend));
  w.field("n", static_cast<std::int64_t>(r.n));
  w.field("k", static_cast<std::int64_t>(r.k));

  w.key("stages");
  w.begin_object();
  for (const std::string& stage : r.clock.stages()) {
    w.field(stage, r.clock.seconds(stage));
  }
  w.end_object();
  w.field("total_seconds", r.clock.total_seconds());
  w.field("spmv_seconds", r.spmv_seconds);

  w.key("eigenvalues");
  w.begin_array();
  for (const real v : r.eigenvalues) w.value(v);
  w.end_array();

  w.key("eig");
  w.begin_object();
  w.field("converged", r.eig_converged);
  w.field("matvec_count", static_cast<std::int64_t>(r.eig_stats.matvec_count));
  w.field("restart_count",
          static_cast<std::int64_t>(r.eig_stats.restart_count));
  w.field("converged_count",
          static_cast<std::int64_t>(r.eig_stats.converged_count));
  w.field("rci_seconds", r.eig_stats.rci_seconds);
  w.field("restart_seconds", r.eig_stats.restart_seconds);
  w.field("ortho_seconds", r.eig_stats.ortho_seconds);
  w.key("restart_history");
  w.begin_array();
  for (const auto& s : r.eig_stats.restart_history) {
    w.begin_object();
    w.field("restart", static_cast<std::int64_t>(s.restart));
    w.field("converged", static_cast<std::int64_t>(s.converged));
    w.field("worst_wanted_residual", s.worst_wanted_residual);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("kmeans");
  w.begin_object();
  w.field("converged", r.kmeans_converged);
  w.field("iterations", static_cast<std::int64_t>(r.kmeans_iterations));
  w.key("inertia_history");
  w.begin_array();
  for (const real v : r.kmeans_inertia_history) w.value(v);
  w.end_array();
  w.end_object();

  w.key("budget");
  w.begin_object();
  w.field("enabled", r.budget.enabled);
  w.field("expired", r.budget.expired);
  w.field("anytime", r.budget.anytime);
  w.field("reason", r.budget.reason);
  w.field("cancel_site", r.budget.cancel_site);
  w.field("total_wall_ms_limit", r.budget.total_wall_ms_limit);
  w.field("total_wall_ms_spent", r.budget.total_wall_ms_spent);
  w.end_object();

  w.key("integrity");
  w.begin_object();
  w.field("checks", std::uint64_t{r.integrity.checks});
  w.field("detected", std::uint64_t{r.integrity.detected});
  w.field("recomputed", std::uint64_t{r.integrity.recomputed});
  w.key("events");
  w.begin_array();
  for (const std::string& e : r.integrity.events) w.value(e);
  w.end_array();
  w.end_object();

  w.key("degradation");
  w.begin_object();
  w.field("degraded", r.degradation.degraded);
  w.field("transfer_retries",
          std::uint64_t{r.device_counters.transfer_retries});
  w.key("events");
  w.begin_array();
  for (const DegradationEvent& e : r.degradation.events) {
    w.begin_object();
    w.field("stage", e.stage);
    w.field("action", e.action);
    w.field("reason", e.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("device_counters");
  write_device_counters(w, r.device_counters);
  w.end_object();
}

}  // namespace

void write_run_report_json(const RunReport& report, std::ostream& os) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "fastsc.run_report.v1");
  w.field("bench", report.bench);

  w.key("datasets");
  w.begin_array();
  for (const BackendRuns& runs : report.datasets) {
    w.begin_object();
    w.field("dataset", runs.dataset);
    w.field("nodes", static_cast<std::int64_t>(runs.nodes));
    w.field("edges", static_cast<std::int64_t>(runs.edges));
    w.field("clusters", static_cast<std::int64_t>(runs.clusters));
    w.key("runs");
    w.begin_array();
    for (const auto& [backend, result] : runs.runs) {
      write_run(w, backend, result);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("tables");
  w.begin_array();
  for (const TextTable& t : report.tables) {
    w.begin_object();
    w.field("title", t.title());
    w.field("text", t.to_string());
    w.field("csv", t.to_csv());
    w.end_object();
  }
  w.end_array();

  if (report.attribution.present) {
    const AttributionReport& a = report.attribution;
    w.key("attribution");
    w.begin_object();
    w.key("roofline");
    w.begin_object();
    w.field("peak_flops", a.roofline.peak_flops);
    w.field("bandwidth_bytes_per_sec", a.roofline.bandwidth_bytes_per_sec);
    w.end_object();
    w.key("sites");
    obs::write_attribution_sites(w, a.sites);
    w.key("totals");
    w.begin_object();
    w.field("kernel_launches", std::uint64_t{a.totals.kernel_launches});
    w.field("transfers_h2d", std::uint64_t{a.totals.transfers_h2d});
    w.field("transfers_d2h", std::uint64_t{a.totals.transfers_d2h});
    w.field("bytes_h2d", std::uint64_t{a.totals.bytes_h2d});
    w.field("bytes_d2h", std::uint64_t{a.totals.bytes_d2h});
    w.field("flops", a.totals.flops);
    w.field("bytes_read", a.totals.bytes_read);
    w.field("bytes_written", a.totals.bytes_written);
    w.field("kernel_seconds", a.totals.kernel_seconds);
    w.field("transfer_seconds", a.totals.transfer_seconds);
    w.end_object();
    w.key("device_counters");
    write_device_counters(w, a.device_totals);
    w.end_object();
  }
  w.end_object();
  os << '\n';
}

bool write_run_report_json_file(const RunReport& report,
                                const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    FASTSC_LOG_ERROR("cannot open run report output file " << path);
    return false;
  }
  write_run_report_json(report, os);
  os.flush();
  if (!os) {
    FASTSC_LOG_ERROR("failed writing run report output file " << path);
    return false;
  }
  return true;
}

TextTable quality_table(const BackendRuns& runs,
                        const std::vector<index_t>& ground_truth,
                        const sparse::Csr& w) {
  TextTable table("Clustering quality on " + runs.dataset +
                  " (vs planted ground truth)");
  table.header({"Backend", "ARI", "NMI", "Purity", "Ncut"});
  for (const auto& [backend, result] : runs.runs) {
    table.row(
        {backend_name(backend),
         TextTable::fmt(metrics::adjusted_rand_index(result.labels,
                                                     ground_truth),
                        4),
         TextTable::fmt(
             metrics::normalized_mutual_information(result.labels,
                                                    ground_truth),
             4),
         TextTable::fmt(metrics::purity(result.labels, ground_truth), 4),
         TextTable::fmt(metrics::normalized_cut(w, result.labels, result.k),
                        4)});
  }
  return table;
}

}  // namespace fastsc::core
