#include "device/device.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fastsc::device {

// --- DeviceContext: configuration and peers ---------------------------------

DeviceContext::DeviceContext(usize workers, TransferModel model)
    : owned_pool_(std::make_unique<ThreadPool>(workers)),
      pool_(owned_pool_.get()),
      model_(model) {
  attribution_.set_roofline(obs::make_roofline(
      model_.bandwidth_bytes_per_sec * model_.efficiency));
}

DeviceContext::DeviceContext(DeviceContext& root, usize index)
    : pool_(root.pool_),
      model_(root.model_),
      memory_limit_bytes_(root.memory_limit_bytes_),
      retry_(root.retry_),
      kernel_bytes_per_sec_(root.kernel_bytes_per_sec_),
      kernel_latency_seconds_(root.kernel_latency_seconds_),
      link_tid_(static_cast<std::uint32_t>(2 * index + 1)),
      compute_tid_(static_cast<std::uint32_t>(2 * index + 2)) {
  attribution_.set_roofline(root.attribution_.roofline());
}

void DeviceContext::set_memory_limit(usize bytes) {
  memory_limit_bytes_ = bytes;
  std::lock_guard lock(peers_mu_);
  for (const auto& p : peers_) p->memory_limit_bytes_ = bytes;
}

void DeviceContext::set_transfer_model(TransferModel m) {
  model_ = m;
  attribution_.set_roofline(obs::make_roofline(
      model_.bandwidth_bytes_per_sec * model_.efficiency));
  std::lock_guard lock(peers_mu_);
  for (const auto& p : peers_) {
    p->model_ = m;
    p->attribution_.set_roofline(attribution_.roofline());
  }
}

void DeviceContext::set_kernel_cost_model(double bytes_per_sec,
                                          double latency_seconds) {
  kernel_bytes_per_sec_ = bytes_per_sec;
  kernel_latency_seconds_ = latency_seconds;
  std::lock_guard lock(peers_mu_);
  for (const auto& p : peers_) {
    p->kernel_bytes_per_sec_ = bytes_per_sec;
    p->kernel_latency_seconds_ = latency_seconds;
  }
}

void DeviceContext::set_transfer_retry(TransferRetryPolicy p) {
  retry_ = p;
  std::lock_guard lock(peers_mu_);
  for (const auto& peer : peers_) peer->retry_ = p;
}

DeviceContext& DeviceContext::peer(usize i) {
  FASTSC_CHECK(i >= 1, "device 0 is the context itself, not a peer");
  std::lock_guard lock(peers_mu_);
  while (peers_.size() < i) {
    // The constructor is private, so no make_unique.
    peers_.push_back(std::unique_ptr<DeviceContext>(
        new DeviceContext(*this, peers_.size() + 1)));
  }
  return *peers_[i - 1];
}

std::vector<const DeviceContext*> DeviceContext::devices() const {
  std::lock_guard lock(peers_mu_);
  std::vector<const DeviceContext*> out{this};
  for (const auto& p : peers_) out.push_back(p.get());
  return out;
}

// --- DeviceContext: metering + virtual timeline -----------------------------

double DeviceContext::virtual_now() const {
  std::lock_guard lock(meter_mu_);
  return virtual_now_;
}

DeviceCounters DeviceContext::counters_snapshot() const {
  std::lock_guard lock(meter_mu_);
  return counters_;
}

void DeviceContext::meter_transfer(usize bytes, double measured_seconds,
                                   CopyDir dir) {
  std::lock_guard lock(meter_mu_);
  const double modeled = dir == CopyDir::kD2d ? model_.d2d_seconds_for(bytes)
                                              : model_.seconds_for(bytes);
  const double begin = virtual_now_;
  const double end = begin + modeled;
  virtual_now_ = end;

  switch (dir) {
    case CopyDir::kH2d:
      counters_.bytes_h2d += bytes;
      counters_.transfers_h2d += 1;
      break;
    case CopyDir::kD2h:
      counters_.bytes_d2h += bytes;
      counters_.transfers_d2h += 1;
      break;
    case CopyDir::kD2d:
      counters_.bytes_d2d += bytes;
      counters_.transfers_d2d += 1;
      counters_.modeled_d2d_seconds += modeled;
      break;
  }
  counters_.measured_transfer_seconds += measured_seconds;
  counters_.modeled_transfer_seconds += modeled;

  // Emit the exact span on this device's virtual link track; its compute
  // track carries the kernels, and the two merged never overlap
  // (tools/check_trace.py checks it).  Zero-length transfers are skipped.
  if (obs::trace_enabled() && end > begin) {
    obs::trace().complete(
        obs::kVirtualPid, link_tid_, copy_dir_name(dir), "transfer",
        begin * 1e6, (end - begin) * 1e6,
        {{"bytes", static_cast<double>(bytes)},
         {"measured_seconds", measured_seconds}});
  }
}

void DeviceContext::attribute_transfer(const char* site, usize bytes,
                                       CopyDir dir) {
  // Same pure function of `bytes` that meter_transfer charged to
  // modeled_transfer_seconds, so per-site sums reproduce the counter total.
  const double modeled = dir == CopyDir::kD2d ? model_.d2d_seconds_for(bytes)
                                              : model_.seconds_for(bytes);
  // An enclosing stage scope claims the traffic; otherwise fall back to the
  // copy mechanism's site, then to the direction-generic bucket.
  const char* scope = obs::current_attr_site();
  const char* resolved = scope != nullptr   ? scope
                         : site != nullptr  ? site
                         : dir == CopyDir::kH2d ? "transfer.h2d"
                         : dir == CopyDir::kD2h ? "transfer.d2h"
                                                : "transfer.d2d";
  attribution_.record_transfer(resolved, bytes, modeled, dir);
  if (obs::AttributionRegistry* bound = obs::bound_attribution();
      bound != nullptr && bound != &attribution_) {
    bound->record_transfer(resolved, bytes, modeled, dir);
  }
}

void DeviceContext::attribute_kernel(const obs::KernelCost& cost,
                                     double duration) {
  const char* scope = obs::current_attr_site();
  const char* resolved = cost.site != nullptr ? cost.site
                         : scope != nullptr  ? scope
                                             : "unattributed";
  // Direct record_kernel callers (reductions, scans, sorts) may not carry a
  // cost; floor flops at one so every launch contributes nonzero work.
  const double flops = cost.flops >= 0 ? cost.flops : 1.0;
  const double bytes_read = cost.bytes_read >= 0 ? cost.bytes_read : 0.0;
  const double bytes_written = cost.bytes_written >= 0 ? cost.bytes_written
                                                       : 0.0;
  attribution_.record_kernel(resolved, duration, flops, bytes_read,
                             bytes_written);
  if (obs::AttributionRegistry* bound = obs::bound_attribution();
      bound != nullptr && bound != &attribution_) {
    bound->record_kernel(resolved, duration, flops, bytes_read, bytes_written);
  }
}

void DeviceContext::record_h2d(usize bytes, double measured_seconds,
                               const char* site) {
  meter_transfer(bytes, measured_seconds, CopyDir::kH2d);
  attribute_transfer(site, bytes, CopyDir::kH2d);
}

void DeviceContext::record_d2h(usize bytes, double measured_seconds,
                               const char* site) {
  meter_transfer(bytes, measured_seconds, CopyDir::kD2h);
  attribute_transfer(site, bytes, CopyDir::kD2h);
}

void DeviceContext::record_d2d(usize bytes, double measured_seconds,
                               const char* site) {
  meter_transfer(bytes, measured_seconds, CopyDir::kD2d);
  attribute_transfer(site, bytes, CopyDir::kD2d);
}

void DeviceContext::record_kernel(double seconds, double modeled_override,
                                  const obs::KernelCost& cost) {
  double duration = modeled_override;
  if (duration < 0) {
    duration = modeled_kernel_seconds(std::max(cost.bytes_read, 0.0) +
                                      std::max(cost.bytes_written, 0.0));
  }
  if (duration < 0) duration = seconds;
  {
    std::lock_guard lock(meter_mu_);
    const double begin = virtual_now_;
    const double end = begin + duration;
    virtual_now_ = end;

    counters_.kernel_seconds += duration;
    counters_.kernel_launches += 1;

    if (obs::trace_enabled() && end > begin) {
      obs::trace().complete(obs::kVirtualPid, compute_tid_, "kernel",
                            "kernel", begin * 1e6, (end - begin) * 1e6,
                            {{"measured_seconds", seconds}});
    }
  }
  attribute_kernel(cost, duration);
}

void DeviceContext::record_alloc(usize bytes) {
  // Fault check outside meter_mu_ — the injector has its own lock, and an
  // injected OOM must leave the accounting untouched.
  if (fault::triggered("device.alloc")) {
    DeviceOutOfMemory e("injected device out of memory: requested " +
                        std::to_string(bytes) + " bytes");
    e.annotate_site("device.alloc");
    throw e;
  }
  std::lock_guard lock(meter_mu_);
  if (memory_limit_bytes_ != 0 &&
      counters_.live_bytes + bytes > memory_limit_bytes_) {
    throw DeviceOutOfMemory(bytes, counters_.live_bytes, memory_limit_bytes_);
  }
  counters_.live_bytes += bytes;
  counters_.total_allocations += 1;
  if (counters_.live_bytes > counters_.peak_bytes) {
    counters_.peak_bytes = counters_.live_bytes;
  }
}

void DeviceContext::record_free(usize bytes) noexcept {
  std::lock_guard lock(meter_mu_);
  counters_.live_bytes =
      counters_.live_bytes >= bytes ? counters_.live_bytes - bytes : 0;
}

void accumulate_counters(DeviceCounters& a, const DeviceCounters& b) {
  a.bytes_h2d += b.bytes_h2d;
  a.bytes_d2h += b.bytes_d2h;
  a.bytes_d2d += b.bytes_d2d;
  a.transfers_h2d += b.transfers_h2d;
  a.transfers_d2h += b.transfers_d2h;
  a.transfers_d2d += b.transfers_d2d;
  a.measured_transfer_seconds += b.measured_transfer_seconds;
  a.modeled_transfer_seconds += b.modeled_transfer_seconds;
  a.modeled_d2d_seconds += b.modeled_d2d_seconds;
  a.kernel_seconds += b.kernel_seconds;
  a.kernel_launches += b.kernel_launches;
  a.transfer_retries += b.transfer_retries;
  a.live_bytes += b.live_bytes;
  a.peak_bytes += b.peak_bytes;
  a.total_allocations += b.total_allocations;
}

void DeviceContext::record_transfer_retry(std::string_view site,
                                          double backoff_seconds) {
  {
    std::lock_guard lock(meter_mu_);
    counters_.transfer_retries += 1;
    virtual_now_ += backoff_seconds;
  }
  obs::bump("fault.transfer_retry");
  obs::metrics().counter("fault.transfer_retry." + std::string(site)).add();
  FASTSC_LOG_WARN("transient transfer fault at '"
                  << site << "': retrying after " << backoff_seconds * 1e6
                  << " us backoff");
}

void DeviceContext::run_compute(const std::function<void(usize)>& job) {
  std::lock_guard lock(compute_mu_);
  pool_->run_workers(job);
}

std::string DeviceContext::description() const {
  std::ostringstream os;
  os << "fastsc simulated device: " << pool_->worker_count()
     << " worker thread(s), modeled PCIe "
     << model_.bandwidth_bytes_per_sec / 1e9 << " GB/s x "
     << model_.efficiency << " efficiency, "
     << model_.latency_seconds * 1e6 << " us latency";
  return os.str();
}

DeviceContext& default_device() {
  static DeviceContext ctx;
  return ctx;
}

}  // namespace fastsc::device
