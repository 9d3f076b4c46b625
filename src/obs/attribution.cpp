#include "obs/attribution.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/log.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace fastsc::obs {

namespace {

/// Utilizations are clamped into (0, 1]: a site that did work always has a
/// positive utilization, and the model never reports running *above* the
/// roofline (host wall-clock noise on the simulated device could otherwise
/// push achieved throughput past the modeled ceiling).
constexpr double kMinUtilization = 1e-12;

thread_local const char* t_site = nullptr;
thread_local AttributionRegistry* t_bound = nullptr;

}  // namespace

double RooflineModel::attainable_flops(double intensity) const noexcept {
  return std::min(peak_flops, intensity * bandwidth_bytes_per_sec);
}

RooflineModel make_roofline(double bandwidth_bytes_per_sec) {
  RooflineModel m;
  m.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec;
  if (const char* env = std::getenv("FASTSC_PEAK_FLOPS")) {
    char* end = nullptr;
    const double peak = std::strtod(env, &end);
    if (end != env && peak > 0) m.peak_flops = peak;
  }
  return m;
}

double arithmetic_intensity(const SiteStats& s) noexcept {
  return s.flops / std::max(s.total_bytes(), 1.0);
}

double roofline_utilization(const SiteStats& s,
                            const RooflineModel& m) noexcept {
  const double seconds = s.total_seconds();
  if (s.flops > 0) {
    const double attainable = m.attainable_flops(arithmetic_intensity(s));
    // Zero modeled time (n<=0 launches, modeled_seconds=0 overrides) or a
    // degenerate model: the site is pinned at the roofline rather than
    // reported as infinitely fast.
    if (seconds <= 0 || attainable <= 0) return 1.0;
    return std::clamp(s.flops / seconds / attainable, kMinUtilization, 1.0);
  }
  // Transfer-only site: utilization of the modeled link bandwidth.
  const double bytes = s.total_bytes();
  if (bytes <= 0 || seconds <= 0 || m.bandwidth_bytes_per_sec <= 0) {
    return kMinUtilization;
  }
  return std::clamp(bytes / seconds / m.bandwidth_bytes_per_sec,
                    kMinUtilization, 1.0);
}

void AttributionRegistry::set_roofline(const RooflineModel& m) {
  std::lock_guard lock(mu_);
  roofline_ = m;
}

RooflineModel AttributionRegistry::roofline() const {
  std::lock_guard lock(mu_);
  return roofline_;
}

void AttributionRegistry::record_kernel(std::string_view site, double seconds,
                                        double flops, double bytes_read,
                                        double bytes_written) {
  std::lock_guard lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(std::string(site), SiteStats{}).first;
  }
  SiteStats& s = it->second;
  s.kernel_launches += 1;
  s.kernel_seconds += seconds;
  s.flops += flops;
  s.bytes_read += bytes_read;
  s.bytes_written += bytes_written;
}

void AttributionRegistry::record_transfer(std::string_view site, usize bytes,
                                          double modeled_seconds,
                                          TransferDir dir) {
  std::lock_guard lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(std::string(site), SiteStats{}).first;
  }
  SiteStats& s = it->second;
  switch (dir) {
    case TransferDir::kH2d:
      s.transfers_h2d += 1;
      s.bytes_h2d += bytes;
      break;
    case TransferDir::kD2h:
      s.transfers_d2h += 1;
      s.bytes_d2h += bytes;
      break;
    case TransferDir::kD2d:
      s.transfers_d2d += 1;
      s.bytes_d2d += bytes;
      break;
  }
  s.transfer_seconds += modeled_seconds;
}

std::vector<SiteReport> AttributionRegistry::report() const {
  std::lock_guard lock(mu_);
  std::vector<SiteReport> out;
  out.reserve(sites_.size());
  for (const auto& [name, stats] : sites_) {
    SiteReport row;
    row.site = name;
    row.stats = stats;
    row.arithmetic_intensity = arithmetic_intensity(stats);
    row.roofline_utilization = roofline_utilization(stats, roofline_);
    out.push_back(std::move(row));
  }
  return out;
}

SiteStats AttributionRegistry::totals() const {
  std::lock_guard lock(mu_);
  SiteStats t;
  for (const auto& [name, s] : sites_) t += s;
  return t;
}

usize AttributionRegistry::site_count() const {
  std::lock_guard lock(mu_);
  return sites_.size();
}

void AttributionRegistry::clear() {
  std::lock_guard lock(mu_);
  sites_.clear();
}

AttrSiteScope::AttrSiteScope(const char* site) : previous_(t_site) {
  t_site = site;
}

AttrSiteScope::~AttrSiteScope() { t_site = previous_; }

const char* current_attr_site() noexcept { return t_site; }

AttrBindScope::AttrBindScope(AttributionRegistry* registry)
    : previous_(t_bound), active_(registry != nullptr) {
  if (active_) t_bound = registry;
}

AttrBindScope::~AttrBindScope() {
  if (active_) t_bound = previous_;
}

AttributionRegistry* bound_attribution() noexcept { return t_bound; }

ObsBindings current_obs_bindings() noexcept {
  ObsBindings b;
  b.attribution = t_bound;
  b.trace = detail::bound_trace();
  b.site = t_site;
  return b;
}

ObsBindScope::ObsBindScope(const ObsBindings& bindings) noexcept {
  previous_.attribution = t_bound;
  previous_.site = t_site;
  t_bound = bindings.attribution;
  t_site = bindings.site;
  previous_.trace = detail::set_bound_trace(bindings.trace);
}

ObsBindScope::~ObsBindScope() {
  t_bound = previous_.attribution;
  t_site = previous_.site;
  detail::set_bound_trace(previous_.trace);
}

void write_attribution_sites(JsonWriter& w,
                             const std::vector<SiteReport>& sites) {
  w.begin_array();
  for (const SiteReport& row : sites) {
    const SiteStats& s = row.stats;
    w.begin_object();
    w.field("site", std::string_view(row.site));
    w.field("kernel_launches", std::uint64_t{s.kernel_launches});
    w.field("transfers_h2d", std::uint64_t{s.transfers_h2d});
    w.field("transfers_d2h", std::uint64_t{s.transfers_d2h});
    w.field("transfers_d2d", std::uint64_t{s.transfers_d2d});
    w.field("bytes_h2d", std::uint64_t{s.bytes_h2d});
    w.field("bytes_d2h", std::uint64_t{s.bytes_d2h});
    w.field("bytes_d2d", std::uint64_t{s.bytes_d2d});
    w.field("flops", s.flops);
    w.field("bytes_read", s.bytes_read);
    w.field("bytes_written", s.bytes_written);
    w.field("kernel_seconds", s.kernel_seconds);
    w.field("transfer_seconds", s.transfer_seconds);
    w.field("arithmetic_intensity", row.arithmetic_intensity);
    w.field("roofline_utilization", row.roofline_utilization);
    w.end_object();
  }
  w.end_array();
}

void write_attribution_json(std::ostream& os,
                            const std::vector<SiteReport>& sites,
                            const RooflineModel& roofline) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "fastsc.attribution.v1");
  w.key("roofline");
  w.begin_object();
  w.field("peak_flops", roofline.peak_flops);
  w.field("bandwidth_bytes_per_sec", roofline.bandwidth_bytes_per_sec);
  w.end_object();
  w.key("sites");
  write_attribution_sites(w, sites);
  w.end_object();
  os << '\n';
}

bool write_attribution_json_file(const std::string& path,
                                 const std::vector<SiteReport>& sites,
                                 const RooflineModel& roofline) {
  std::ofstream os(path);
  if (!os) {
    FASTSC_LOG_ERROR("cannot open attribution output file " << path);
    return false;
  }
  write_attribution_json(os, sites, roofline);
  os.flush();
  if (!os) {
    FASTSC_LOG_ERROR("failed writing attribution output file " << path);
    return false;
  }
  return true;
}

}  // namespace fastsc::obs
