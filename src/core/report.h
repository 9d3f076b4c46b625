// Report assembly: turn pipeline results into the paper's tables.
//
// Each table bench runs the three backends on one dataset and prints:
//  * the paper-style per-stage time table (Table III-VI shape),
//  * the figure series (same numbers, one row per stage per backend,
//    CSV-friendly — Figures 3-6 are bar charts of these),
//  * the communication/computation split (Table VII shape) for kDevice.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/spectral.h"
#include "obs/attribution.h"
#include "sparse/csr.h"

namespace fastsc::core {

/// One dataset's worth of backend results keyed by backend.
struct BackendRuns {
  std::string dataset;
  index_t nodes = 0;
  index_t edges = 0;
  index_t clusters = 0;
  std::vector<std::pair<Backend, SpectralResult>> runs;
};

/// Paper Table III-VI: rows = stages, columns = backends.
[[nodiscard]] TextTable stage_table(const BackendRuns& runs,
                                    bool include_similarity);

/// Figure 3-6 series: dataset,backend,stage,seconds rows (CSV-friendly).
[[nodiscard]] TextTable figure_series(const BackendRuns& runs);

/// Paper Table VII row for the device run: communication vs computation.
/// `comm_seconds`/`comp_seconds` are returned for aggregation.
[[nodiscard]] TextTable communication_table(
    const std::vector<BackendRuns>& all_runs);

/// Paper Table II: dataset inventory.
[[nodiscard]] TextTable dataset_table(const std::vector<BackendRuns>& all_runs);

/// Clustering-quality table (beyond the paper: ARI/NMI vs planted truth and
/// Ncut), one row per backend.
[[nodiscard]] TextTable quality_table(
    const BackendRuns& runs, const std::vector<index_t>& ground_truth,
    const sparse::Csr& w);

/// Attribution section of a run report: the per-site cost rows of one
/// DeviceContext and every peer it has made, the roofline ceilings they
/// were scored against, and the lifetime DeviceCounters totals the
/// per-site sums must reproduce (tools/check_trace.py --report verifies
/// bytes exactly and seconds to 1e-6).
struct AttributionReport {
  bool present = false;  ///< emitted only when a context was attached
  obs::RooflineModel roofline;
  std::vector<obs::SiteReport> sites;   ///< sorted by site name
  obs::SiteStats totals;                ///< sum over every site
  device::DeviceCounters device_totals; ///< devices' rollup (cross-check)
};

/// Snapshot the attribution registries + counters of `ctx` and its peers
/// (DeviceContext::devices()) into a section: per-site rows merged by site
/// name (stats summed, roofline columns scored against the context's
/// model), device_totals the devices' counter rollup.
[[nodiscard]] AttributionReport collect_attribution(
    const device::DeviceContext& ctx);

/// Per-site cost table: launches, bytes, flops, seconds, intensity, and
/// roofline utilization — one row per site plus a totals row.
[[nodiscard]] TextTable attribution_table(const AttributionReport& a);

/// Machine-readable run report: everything a table bench measured, as one
/// JSON document (schema "fastsc.run_report.v1").  Carries both the
/// structured numbers — per-stage seconds, eigensolver/k-means telemetry,
/// device counters — and the rendered table text, so downstream consumers
/// (bench/fill_experiments.py) can either read fields directly or reuse the
/// exact stdout rendering without scraping a live process.
struct RunReport {
  std::string bench;                  ///< bench executable name
  std::vector<BackendRuns> datasets;  ///< structured results, run order
  std::vector<TextTable> tables;      ///< rendered tables, print order
  AttributionReport attribution;      ///< per-site cost rows (if present)
};

void write_run_report_json(const RunReport& report, std::ostream& os);
/// Returns false (and logs) on I/O failure.
bool write_run_report_json_file(const RunReport& report,
                                const std::string& path);

}  // namespace fastsc::core
