#include "device/device.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/cancel.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fastsc::device {

namespace {

/// Metering target for the calling thread: a stream's clock inside a
/// ClockScope, the context's host clock otherwise.  One slot suffices —
/// a thread executes ops for at most one stream at a time.
thread_local VirtualClock* t_current_clock = nullptr;

/// The `device.hang` fault: a wedged launch spins until the watchdog (or any
/// other cancellation) fires and then surfaces as a site-annotated
/// CancelledError.  A wall cap bounds the spin so an unwatched hang still
/// fails loudly instead of wedging the caller.
void simulate_hang() {
  constexpr double kMaxHangSeconds = 5.0;
  const WallTimer t;
  for (;;) {
    if (cancel::pending("device.hang")) {
      throw cancel::CancelledError("injected device hang cancelled",
                                   "device.hang");
    }
    if (t.seconds() > kMaxHangSeconds) {
      throw DeviceError(
          "injected device hang exceeded its 5 s cap with no watchdog "
          "cancellation");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

LaunchLiveness::LaunchLiveness() {
  cancel::stream_busy(true);
  try {
    if (fault::triggered("device.hang")) simulate_hang();
  } catch (...) {
    cancel::stream_busy(false);
    throw;
  }
}

LaunchLiveness::~LaunchLiveness() {
  cancel::stream_busy(false);
  cancel::heartbeat();
}

// --- PinnedPool -------------------------------------------------------------

PinnedPool::Block PinnedPool::acquire(usize bytes) {
  std::lock_guard lock(mu_);
  stats_.acquires += 1;
  // Smallest free block that fits; avoids pinning a large block under a
  // small recurring copy.
  usize best = free_.size();
  for (usize i = 0; i < free_.size(); ++i) {
    if (free_[i].capacity() >= bytes &&
        (best == free_.size() || free_[i].capacity() < free_[best].capacity())) {
      best = i;
    }
  }
  Block block;
  if (best != free_.size()) {
    stats_.reuses += 1;
    stats_.allocated_bytes -= free_[best].capacity();
    block = std::move(free_[best]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(best));
  } else {
    stats_.allocated_blocks += 1;
  }
  block.resize(bytes);
  return block;
}

void PinnedPool::release(Block&& block) {
  std::lock_guard lock(mu_);
  stats_.allocated_bytes += block.capacity();
  stats_.peak_allocated_bytes =
      std::max(stats_.peak_allocated_bytes, stats_.allocated_bytes);
  free_.push_back(std::move(block));
}

PinnedPool::Stats PinnedPool::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void PinnedPool::clear() {
  std::lock_guard lock(mu_);
  free_.clear();
  stats_.allocated_bytes = 0;
  stats_.allocated_blocks = 0;
}

// --- DeviceContext: metering + virtual timeline -----------------------------

DeviceContext::ClockScope::ClockScope(VirtualClock& clock)
    : previous_(t_current_clock) {
  t_current_clock = &clock;
}

DeviceContext::ClockScope::~ClockScope() { t_current_clock = previous_; }

VirtualClock& DeviceContext::current_clock_locked() {
  return t_current_clock != nullptr ? *t_current_clock : host_clock_;
}

double DeviceContext::current_clock_now() const {
  std::lock_guard lock(meter_mu_);
  return t_current_clock != nullptr ? t_current_clock->now : host_clock_.now;
}

void DeviceContext::sync_current_clock_to(double t) {
  std::lock_guard lock(meter_mu_);
  VirtualClock& clk = current_clock_locked();
  clk.now = std::max(clk.now, t);
}

void DeviceContext::advance_clock_to(VirtualClock& clock, double floor) {
  std::lock_guard lock(meter_mu_);
  clock.now = std::max(clock.now, floor);
}

double DeviceContext::clock_now(const VirtualClock& clock) const {
  std::lock_guard lock(meter_mu_);
  return clock.now;
}

DeviceCounters DeviceContext::counters_snapshot() const {
  std::lock_guard lock(meter_mu_);
  return counters_;
}

void DeviceContext::prune_intervals_locked() {
  // A future copy starts at or after link_free_at_, a future kernel at or
  // after compute_free_at_; intervals entirely behind the opposite frontier
  // can never overlap new work and have already been paired with the past.
  std::erase_if(copy_intervals_,
                [this](const Interval& iv) { return iv.end <= compute_free_at_; });
  std::erase_if(kernel_intervals_,
                [this](const Interval& iv) { return iv.end <= link_free_at_; });
}

void DeviceContext::meter_transfer(usize bytes, double measured_seconds,
                                   CopyDir dir) {
  std::lock_guard lock(meter_mu_);
  const double modeled = dir == CopyDir::kD2d ? model_.d2d_seconds_for(bytes)
                                              : model_.seconds_for(bytes);
  VirtualClock& clk = current_clock_locked();
  const double begin = std::max(clk.now, link_free_at_);
  const double end = begin + modeled;
  clk.now = end;
  link_free_at_ = end;

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
  if (t_current_clock != nullptr) counters_.async_copies += 1;

  // Overlap against every kernel interval still near the frontier.  Kernel
  // intervals are pairwise disjoint (one compute engine), so the sum is the
  // measure of this window's intersection with kernel busy time — each
  // overlap window counted exactly once.
  for (const Interval& k : kernel_intervals_) {
    const double ov = std::min(end, k.end) - std::max(begin, k.begin);
    if (ov > 0) {
      counters_.overlapped_seconds += ov;
      switch (dir) {
        case CopyDir::kH2d: counters_.overlapped_h2d_seconds += ov; break;
        case CopyDir::kD2h: counters_.overlapped_d2h_seconds += ov; break;
        case CopyDir::kD2d: counters_.overlapped_d2d_seconds += ov; break;
      }
    }
  }
  copy_intervals_.push_back(Interval{begin, end, dir});
  prune_intervals_locked();

  // Emit the *exact* interval the overlap accounting above used, on this
  // device's virtual link track, so a trace consumer can recompute
  // overlapped_seconds from the JSON (tools/check_trace.py does).
  // Zero-length transfers carry no overlap information; skip them.
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
                             bytes_written, cost.bytes_per_scalar);
  if (obs::AttributionRegistry* bound = obs::bound_attribution();
      bound != nullptr && bound != &attribution_) {
    bound->record_kernel(resolved, duration, flops, bytes_read, bytes_written,
                         cost.bytes_per_scalar);
  }
}

void DeviceContext::record_h2d(usize bytes, double measured_seconds,
                               const char* site) {
  // Watchdog overrun check before metering, with no locks held (the
  // governor's lock orders strictly before meter_mu_).
  cancel::note_transfer("transfer.h2d", measured_seconds,
                        model_.seconds_for(bytes));
  meter_transfer(bytes, measured_seconds, CopyDir::kH2d);
  attribute_transfer(site, bytes, CopyDir::kH2d);
}

void DeviceContext::record_d2h(usize bytes, double measured_seconds,
                               const char* site) {
  cancel::note_transfer("transfer.d2h", measured_seconds,
                        model_.seconds_for(bytes));
  meter_transfer(bytes, measured_seconds, CopyDir::kD2h);
  attribute_transfer(site, bytes, CopyDir::kD2h);
}

void DeviceContext::record_d2d(usize bytes, double measured_seconds,
                               const char* site) {
  cancel::note_transfer("transfer.d2d", measured_seconds,
                        model_.d2d_seconds_for(bytes));
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
    VirtualClock& clk = current_clock_locked();
    const double begin = std::max(clk.now, compute_free_at_);
    const double end = begin + duration;
    clk.now = end;
    compute_free_at_ = end;

    counters_.kernel_seconds += duration;
    counters_.kernel_launches += 1;
    if (t_current_clock != nullptr) counters_.async_kernel_launches += 1;

    for (const Interval& c : copy_intervals_) {
      const double ov = std::min(end, c.end) - std::max(begin, c.begin);
      if (ov > 0) {
        counters_.overlapped_seconds += ov;
        switch (c.dir) {
          case CopyDir::kH2d: counters_.overlapped_h2d_seconds += ov; break;
          case CopyDir::kD2h: counters_.overlapped_d2h_seconds += ov; break;
          case CopyDir::kD2d: counters_.overlapped_d2d_seconds += ov; break;
        }
      }
    }
    kernel_intervals_.push_back(Interval{begin, end, CopyDir::kH2d});
    prune_intervals_locked();

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

void DeviceContext::note_transfer_retry(std::string_view site,
                                        double backoff_seconds) {
  {
    std::lock_guard lock(meter_mu_);
    counters_.transfer_retries += 1;
    VirtualClock& clk = current_clock_locked();
    clk.now += backoff_seconds;
  }
  obs::bump("fault.transfer_retry");
  obs::metrics().counter("fault.transfer_retry." + std::string(site)).add();
  FASTSC_LOG_WARN("transient transfer fault at '"
                  << site << "': retrying after " << backoff_seconds * 1e6
                  << " us backoff");
}

void DeviceContext::run_compute(const std::function<void(usize)>& job) {
  std::lock_guard lock(compute_mu_);
  pool_.run_workers(job);
}

std::string DeviceContext::description() const {
  std::ostringstream os;
  os << "fastsc simulated device: " << pool_.worker_count()
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
