// Kernel-level cost attribution and roofline accounting.
//
// DeviceCounters aggregates bytes/seconds per context, which answers "how
// much did the device do" but not "which kernel is bandwidth-bound" — the
// question the paper's Tables III-VII are built around.  This module tags
// every device launch and host<->device transfer with a stable *site* name
// (dotted lowercase identifiers: "spmv.csr", "kmeans.argmin",
// "stage.similarity") and accumulates, per site:
//
//   * launch / transfer counts and bytes moved in each direction,
//   * modeled flops and bytes read/written by kernel bodies,
//   * the exact seconds the metering layer put on the virtual timeline
//     (kernel duration incl. LaunchConfig::modeled_seconds overrides, and
//     the TransferModel's modeled PCIe seconds) — so per-site sums
//     reproduce the DeviceCounters totals.
//
// From those, each site gets an arithmetic intensity (flops per byte
// touched) and a modeled roofline utilization: achieved throughput over
// min(peak flops, intensity x TransferModel bandwidth), clamped to (0, 1].
// Transfer-only sites degenerate to link-bandwidth utilization.
//
// Site resolution:
//   * kernels: LaunchConfig::site if set, else the innermost AttrSiteScope
//     on the calling thread, else "unattributed";
//   * transfers: the innermost AttrSiteScope if set (a pipeline stage
//     claiming its staging traffic), else the mechanism site the copy path
//     passed ("device.h2d", "copy.d2h", "d2d.halo", ...).
//
// Every DeviceContext owns one registry (context-lifetime totals, what the
// benches report).  A second, per-job registry can be bound to the current
// thread with AttrBindScope — the service binds one around each job so
// fastsc_serve can emit one attribution table per job.  Bindings propagate
// through ThreadPool bulk dispatch (ObsBindings).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace fastsc::obs {

class TraceRecorder;
class JsonWriter;

/// Ceilings the per-site utilization is computed against.  The defaults
/// model the paper's Tesla K20c (1.17 Tflop/s fp64 peak) fed over the
/// modeled PCIe link; DeviceContext swaps in its TransferModel's effective
/// bandwidth, and FASTSC_PEAK_FLOPS overrides the flops ceiling.
struct RooflineModel {
  double peak_flops = 1.17e12;
  double bandwidth_bytes_per_sec = 6e9;  ///< effective link/memory bandwidth

  /// Attainable flop rate at a given arithmetic intensity (flops/byte):
  /// min(peak_flops, intensity * bandwidth) — the classic roofline.
  [[nodiscard]] double attainable_flops(double intensity) const noexcept;
};

/// RooflineModel with the given effective bandwidth and the default peak
/// flops ceiling, overridable via the FASTSC_PEAK_FLOPS environment
/// variable (flop/s; invalid or non-positive values are ignored).
[[nodiscard]] RooflineModel make_roofline(double bandwidth_bytes_per_sec);

/// Direction of a metered copy.  kD2d is a peer-to-peer transfer between
/// two devices of a DeviceGroup (metered on the destination context).
enum class TransferDir { kH2d, kD2h, kD2d };

/// Modeled cost of one kernel launch, carried alongside the metering call.
/// Negative fields select defaults: 1 flop and 8 bytes read + 8 written per
/// logical thread (so every launch has nonzero flops), site resolution per
/// the header comment.
struct KernelCost {
  const char* site = nullptr;
  double flops = -1.0;
  double bytes_read = -1.0;
  double bytes_written = -1.0;
};

/// Per-site accumulators.  Byte/count fields are exact; seconds are the
/// same doubles the DeviceCounters totals accumulated, so sums across sites
/// match the context totals up to summation order.
struct SiteStats {
  std::uint64_t kernel_launches = 0;
  std::uint64_t transfers_h2d = 0;
  std::uint64_t transfers_d2h = 0;
  std::uint64_t transfers_d2d = 0;
  std::uint64_t bytes_h2d = 0;
  std::uint64_t bytes_d2h = 0;
  std::uint64_t bytes_d2d = 0;
  double flops = 0;
  double bytes_read = 0;
  double bytes_written = 0;
  double kernel_seconds = 0;    ///< virtual-timeline kernel durations
  double transfer_seconds = 0;  ///< modeled link seconds (PCIe + peer)

  /// All bytes the site touched: modeled kernel traffic plus link staging.
  [[nodiscard]] double total_bytes() const noexcept {
    return bytes_read + bytes_written + static_cast<double>(bytes_h2d) +
           static_cast<double>(bytes_d2h) + static_cast<double>(bytes_d2d);
  }
  [[nodiscard]] double total_seconds() const noexcept {
    return kernel_seconds + transfer_seconds;
  }

  SiteStats& operator+=(const SiteStats& o) noexcept {
    kernel_launches += o.kernel_launches;
    transfers_h2d += o.transfers_h2d;
    transfers_d2h += o.transfers_d2h;
    transfers_d2d += o.transfers_d2d;
    bytes_h2d += o.bytes_h2d;
    bytes_d2h += o.bytes_d2h;
    bytes_d2d += o.bytes_d2d;
    flops += o.flops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    kernel_seconds += o.kernel_seconds;
    transfer_seconds += o.transfer_seconds;
    return *this;
  }
};

/// One row of an attribution report, with the derived roofline columns.
struct SiteReport {
  std::string site;
  SiteStats stats;
  double arithmetic_intensity = 0;  ///< flops per byte touched
  double roofline_utilization = 0;  ///< achieved / attainable, in (0, 1]
};

/// Thread-safe site -> SiteStats accumulator.
class AttributionRegistry {
 public:
  AttributionRegistry() = default;
  AttributionRegistry(const AttributionRegistry&) = delete;
  AttributionRegistry& operator=(const AttributionRegistry&) = delete;

  void set_roofline(const RooflineModel& m);
  [[nodiscard]] RooflineModel roofline() const;

  /// Accumulate one kernel launch.  `seconds` must be the exact duration
  /// the metering layer added to DeviceCounters::kernel_seconds.
  void record_kernel(std::string_view site, double seconds, double flops,
                     double bytes_read, double bytes_written);

  /// Accumulate one transfer.  `modeled_seconds` must be the TransferModel
  /// duration added to DeviceCounters::modeled_transfer_seconds.
  void record_transfer(std::string_view site, usize bytes,
                       double modeled_seconds, TransferDir dir);
  void record_transfer(std::string_view site, usize bytes,
                       double modeled_seconds, bool h2d) {
    record_transfer(site, bytes, modeled_seconds,
                    h2d ? TransferDir::kH2d : TransferDir::kD2h);
  }

  /// Sorted per-site rows with derived roofline columns.
  [[nodiscard]] std::vector<SiteReport> report() const;

  /// Sum of every site's accumulators (no derived columns).
  [[nodiscard]] SiteStats totals() const;

  [[nodiscard]] usize site_count() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, SiteStats, std::less<>> sites_;
  RooflineModel roofline_;
};

/// Derived roofline columns for one site under a given model (exposed so
/// report writers and tests share one formula).
[[nodiscard]] double arithmetic_intensity(const SiteStats& s) noexcept;
[[nodiscard]] double roofline_utilization(const SiteStats& s,
                                          const RooflineModel& m) noexcept;

/// RAII region tag: launches/transfers on this thread without an explicit
/// site are attributed to `site` (innermost scope wins).  `site` must be a
/// string literal or otherwise outlive the scope.
class AttrSiteScope {
 public:
  explicit AttrSiteScope(const char* site);
  ~AttrSiteScope();
  AttrSiteScope(const AttrSiteScope&) = delete;
  AttrSiteScope& operator=(const AttrSiteScope&) = delete;

 private:
  const char* previous_;
};

/// The innermost AttrSiteScope site on this thread, or nullptr.
[[nodiscard]] const char* current_attr_site() noexcept;

/// RAII binding of a secondary (per-job) registry: while bound, every
/// attribution record on this thread is mirrored into `registry` in
/// addition to the owning DeviceContext's registry.  A null registry is a
/// no-op, so callers can construct unconditionally.
class AttrBindScope {
 public:
  explicit AttrBindScope(AttributionRegistry* registry);
  ~AttrBindScope();
  AttrBindScope(const AttrBindScope&) = delete;
  AttrBindScope& operator=(const AttrBindScope&) = delete;

 private:
  AttributionRegistry* previous_;
  bool active_;
};

/// The bound per-job registry on this thread, or nullptr.
[[nodiscard]] AttributionRegistry* bound_attribution() noexcept;

/// Snapshot of this thread's observability bindings, for propagation into
/// helper threads that do work on the caller's behalf (ThreadPool bulk
/// dispatch).
struct ObsBindings {
  AttributionRegistry* attribution = nullptr;
  TraceRecorder* trace = nullptr;
  const char* site = nullptr;
};

[[nodiscard]] ObsBindings current_obs_bindings() noexcept;

/// RAII adoption of another thread's bindings (including nulls — the scope
/// reproduces the captured thread's state exactly and restores on exit).
class ObsBindScope {
 public:
  explicit ObsBindScope(const ObsBindings& bindings) noexcept;
  ~ObsBindScope();
  ObsBindScope(const ObsBindScope&) = delete;
  ObsBindScope& operator=(const ObsBindScope&) = delete;

 private:
  ObsBindings previous_;
};

/// Write an attribution report as a JSON array value (rows with raw
/// accumulators + derived roofline columns); shared by the run-report
/// emitter and the per-job artifact writer.
void write_attribution_sites(JsonWriter& w,
                             const std::vector<SiteReport>& sites);

/// Standalone {"roofline": {...}, "sites": [...]} document.
void write_attribution_json(std::ostream& os,
                            const std::vector<SiteReport>& sites,
                            const RooflineModel& roofline);
bool write_attribution_json_file(const std::string& path,
                                 const std::vector<SiteReport>& sites,
                                 const RooflineModel& roofline);

}  // namespace fastsc::obs
