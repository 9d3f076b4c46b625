// Simulated CUDA-style device runtime.
//
// This module stands in for the NVIDIA Tesla K20c + CUDA 7.5 stack the paper
// runs on (DESIGN.md §2).  It preserves the *structure* of a CUDA program:
//
//   * device memory is a distinct allocation space (DeviceBuffer<T>) that
//     host code may only reach through explicit copies,
//   * every host<->device copy is metered: bytes, transfer count, measured
//     wall time of the staging memcpy, and modeled PCIe time from
//     TransferModel — this drives the Table VII reproduction,
//   * kernels are launched over a (grid, block) decomposition and execute
//     data-parallel on a worker thread pool; kernel wall time is metered,
//   * every operation is synchronous, like the paper's default CUDA stream:
//     copy_h2d/copy_d2h and launch() return when the work has completed.
//     A device runs one operation at a time, so its copies, kernels and
//     retry backoffs are laid end to end on one virtual timeline; Table
//     VII's communication time adds to compute rather than hiding behind
//     it.
//
// On the evaluation machine the pool may have a single worker; the runtime
// is still exercised end-to-end (decomposition, staging, accounting), which
// is the point of the substitution.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include <stdexcept>

#include "common/buffer.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/types.h"
#include "device/transfer_model.h"
#include "fault/fault.h"
#include "obs/attribution.h"
#include "obs/trace.h"

namespace fastsc::device {

/// Direction of a metered copy; kD2d is a peer transfer between two devices
/// of a DeviceGroup (device/device_group.h), metered on the destination.
using CopyDir = obs::TransferDir;

[[nodiscard]] constexpr const char* copy_dir_name(CopyDir dir) noexcept {
  return dir == CopyDir::kH2d   ? "h2d"
         : dir == CopyDir::kD2h ? "d2h"
                                : "d2d";
}

/// Base of the device error hierarchy.  Carries an optional originating
/// site so an error rethrown by an outer layer (the bounded transfer retry,
/// the degradation ladder) still says *where* the first failure happened.
class DeviceError : public std::runtime_error {
 public:
  explicit DeviceError(const std::string& message)
      : std::runtime_error(message) {}

  /// Record the failing site once (first annotation wins — the error keeps
  /// its original location even if re-annotated downstream).
  void annotate_site(const std::string& site) {
    if (site_.empty() && !site.empty()) {
      site_ = site;
      annotated_ = std::string(std::runtime_error::what()) +
                   " [site: " + site_ + "]";
    }
  }

  [[nodiscard]] const std::string& site() const noexcept { return site_; }

  [[nodiscard]] const char* what() const noexcept override {
    return annotated_.empty() ? std::runtime_error::what()
                              : annotated_.c_str();
  }

  /// Transient errors (transfer glitches) are retryable; permanent ones
  /// (OOM) escalate straight to the degradation ladder.
  [[nodiscard]] virtual bool transient() const noexcept { return false; }

 private:
  std::string site_;
  std::string annotated_;
};

/// Thrown when an allocation would exceed the context's device-memory
/// budget (cudaErrorMemoryAllocation equivalent).
class DeviceOutOfMemory : public DeviceError {
 public:
  DeviceOutOfMemory(usize requested, usize live, usize limit)
      : DeviceError(
            "simulated device out of memory: requested " +
            std::to_string(requested) + " bytes with " + std::to_string(live) +
            " live of " + std::to_string(limit) + " budget") {}

  explicit DeviceOutOfMemory(const std::string& message)
      : DeviceError(message) {}
};

/// Transient host<->device transfer failure (injected; the real-hardware
/// analogues are ECC retries and link CRC replays).  Absorbed by the
/// bounded retry in run_transfer_with_retry below.
class DeviceTransferError : public DeviceError {
 public:
  DeviceTransferError(const std::string& site, usize bytes, CopyDir dir)
      : DeviceError("transient device transfer error at " + site + " (" +
                    std::to_string(bytes) + " bytes " + copy_dir_name(dir) +
                    ")") {}

  DeviceTransferError(const std::string& site, usize bytes, bool h2d)
      : DeviceTransferError(site, bytes,
                            h2d ? CopyDir::kH2d : CopyDir::kD2h) {}

  [[nodiscard]] bool transient() const noexcept override { return true; }
};

/// Silent-data-corruption *detection* surfaced as an error: an ABFT
/// checksum, invariant sentinel or CRC frame found a payload that no longer
/// matches what was computed/stored.  The payload itself produced no fault —
/// this error is raised by the verifier.  Permanent by default so the
/// degradation ladders escalate (recompute-block already failed by the time
/// one of these is thrown); `transient_` is set for staged-transfer CRC
/// mismatches, where re-running the upload inside run_transfer_with_retry
/// is the designed recovery.
class DataIntegrityError : public DeviceError {
 public:
  explicit DataIntegrityError(const std::string& message,
                              bool transient = false)
      : DeviceError("data integrity: " + message), transient_(transient) {}

  [[nodiscard]] bool transient() const noexcept override {
    return transient_;
  }

 private:
  bool transient_ = false;
};

/// Running totals kept by a DeviceContext.  Snapshot with
/// DeviceContext::counters_snapshot() when other threads share the context.
struct DeviceCounters {
  usize bytes_h2d = 0;
  usize bytes_d2h = 0;
  /// Peer-to-peer traffic received from other devices of a DeviceGroup
  /// (metered on the destination context).
  usize bytes_d2d = 0;
  usize transfers_h2d = 0;
  usize transfers_d2h = 0;
  usize transfers_d2d = 0;
  /// Wall time actually spent staging (host memcpy in this simulation).
  double measured_transfer_seconds = 0;
  /// Modeled link time from the TransferModel: PCIe copies plus peer (D2D)
  /// copies — both occupy this device's single link engine.
  double modeled_transfer_seconds = 0;
  /// The D2D slice of modeled_transfer_seconds (already included above).
  double modeled_d2d_seconds = 0;
  /// Time spent inside kernel bodies (measured wall time, unless a launch
  /// supplied LaunchConfig::modeled_seconds).
  double kernel_seconds = 0;
  usize kernel_launches = 0;
  /// Transient transfer faults absorbed by the bounded retry (each retry
  /// also charges its backoff to the virtual timeline).
  usize transfer_retries = 0;
  /// Device-memory accounting.
  usize live_bytes = 0;
  usize peak_bytes = 0;
  usize total_allocations = 0;

  /// kernel + modeled link time — the modeled end-to-end busy time of the
  /// device, whose operations never overlap, so on one context it never
  /// exceeds DeviceContext::virtual_now() (which adds retry backoffs).  A
  /// sum over several devices (DeviceGroup::rollup_counters) adds busy
  /// times that ran side by side.
  [[nodiscard]] double modeled_pipeline_seconds() const noexcept {
    return kernel_seconds + modeled_transfer_seconds;
  }

  void reset() { *this = DeviceCounters{}; }
};

/// Sum `b` into `a` field by field (used by the group rollup, the reports
/// over a context and its peers, and by tests asserting the conservation
/// law independently).
void accumulate_counters(DeviceCounters& a, const DeviceCounters& b);

/// Bounded retry-with-backoff for *transient* transfer errors
/// (DeviceTransferError::transient()).  The backoff doubles per attempt and
/// is charged to the device's virtual timeline, so fault-injected runs stay
/// deterministic on the modeled timeline.
struct TransferRetryPolicy {
  index_t max_retries = 3;
  double backoff_seconds = 25e-6;
};

/// A simulated GPU: an executor plus metering.  The metering and the
/// virtual timeline are thread-safe so several host threads (the service
/// executors) can share one context; kernel execution itself is serialized
/// on the compute engine (one pool), like a single-SM-partition GPU.
///
/// A context is also device 0 of every DeviceGroup built on it
/// (device/device_group.h).  Devices 1..N-1 are its peers: full contexts
/// with their own books and timeline, created on first use and kept for
/// the context's lifetime, configured like it and running their kernels on
/// its pool.
class DeviceContext {
 public:
  /// workers == 0 selects hardware concurrency.
  explicit DeviceContext(usize workers = 0, TransferModel model = {});

  /// Device-memory budget in bytes; 0 = unlimited.  The paper's K20c has
  /// 5 GB — set this to study out-of-core behaviour (the chunked builders
  /// in graph/build.h stay within any budget).  Applies to each peer too.
  void set_memory_limit(usize bytes);
  [[nodiscard]] usize memory_limit() const noexcept {
    return memory_limit_bytes_;
  }

  /// The worker pool kernels run on; a peer's is its root's.
  [[nodiscard]] ThreadPool& pool() noexcept { return *pool_; }
  [[nodiscard]] const TransferModel& transfer_model() const noexcept {
    return model_;
  }
  /// Also sets the model of each peer.
  void set_transfer_model(TransferModel m);

  /// Deterministic kernel cost model: while `bytes_per_sec` > 0, a kernel
  /// recorded without an explicit modeled duration is charged
  /// `latency_seconds + (bytes_read + bytes_written) / bytes_per_sec`
  /// instead of its measured wall time, so modeled timelines (the
  /// DeviceGroup speedup curves) are a pure function of the work, not of
  /// host noise.  0 (default) keeps measured kernel wall time.  Also sets
  /// the model of each peer.
  void set_kernel_cost_model(double bytes_per_sec, double latency_seconds);

  /// Modeled duration of a kernel touching `bytes_touched` bytes under the
  /// cost model, or -1 (measure wall time) when the model is off.  Feed to
  /// LaunchConfig::modeled_seconds for launches whose charged bytes differ
  /// from their declared bytes_read + bytes_written.
  [[nodiscard]] double modeled_kernel_seconds(
      double bytes_touched) const noexcept {
    if (kernel_bytes_per_sec_ <= 0) return -1.0;
    return kernel_latency_seconds_ + bytes_touched / kernel_bytes_per_sec_;
  }

  /// Also sets the policy of each peer.
  void set_transfer_retry(TransferRetryPolicy p);
  [[nodiscard]] const TransferRetryPolicy& transfer_retry() const noexcept {
    return retry_;
  }

  /// Meter one absorbed transient transfer fault: bump
  /// DeviceCounters::transfer_retries, charge the backoff to the virtual
  /// timeline, and publish fault.transfer_retry counters.
  void record_transfer_retry(std::string_view site, double backoff_seconds);

  /// Direct counter access: safe while no other thread meters on this
  /// context.  Prefer counters_snapshot() when threads share it.
  [[nodiscard]] DeviceCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const DeviceCounters& counters() const noexcept {
    return counters_;
  }

  /// Consistent copy of the counters under the metering lock.
  [[nodiscard]] DeviceCounters counters_snapshot() const;

  /// End of the virtual timeline, in modeled seconds since context
  /// creation: every copy, kernel and retry backoff so far, end to end.
  [[nodiscard]] double virtual_now() const;

  /// Human-readable device description for Table I style output.
  [[nodiscard]] std::string description() const;

  // --- metering hooks (used by DeviceBuffer, the copy helpers, launch) ---
  //
  // Each record_* call both updates the running totals and appends the
  // operation to the virtual timeline: a copy occupies it for its modeled
  // link duration, a kernel for its measured (or overridden) duration.  The
  // span starts where the previous operation ended, whichever thread issued
  // it, and is traced on the device's link or compute track.
  //
  // Every call also feeds the cost-attribution registry (and the
  // thread-bound per-job registry, if any) with the *same* durations the
  // counters accumulated, so per-site sums reproduce the totals.  `site`
  // names the copy mechanism; an enclosing obs::AttrSiteScope overrides it.
  void record_h2d(usize bytes, double measured_seconds,
                  const char* site = nullptr);
  void record_d2h(usize bytes, double measured_seconds,
                  const char* site = nullptr);
  /// Peer copy *into* this device from another device of a DeviceGroup.
  /// Occupies this device's link engine for the TransferModel's D2D
  /// duration; the group's copy_peer is the only intended caller.
  void record_d2d(usize bytes, double measured_seconds,
                  const char* site = nullptr);
  /// `modeled_override` >= 0 replaces the duration on the virtual timeline
  /// and in kernel_seconds (deterministic tests, explicit cost formulas);
  /// otherwise the kernel cost model, when set, charges the cost's bytes.
  void record_kernel(double seconds, double modeled_override = -1.0,
                     const obs::KernelCost& cost = {});
  void record_alloc(usize bytes);
  void record_free(usize bytes) noexcept;

  /// Device i >= 1 of every DeviceGroup on this context.  Created on first
  /// use with this context's transfer model, memory limit, retry policy and
  /// kernel cost model, tracing on tracks (2i+1, 2i+2), running its kernels
  /// on this context's pool; every later call returns the same object.
  [[nodiscard]] DeviceContext& peer(usize i);

  /// This context followed by every peer made so far, in device order: the
  /// devices whose books a report on this context covers.
  [[nodiscard]] std::vector<const DeviceContext*> devices() const;

  /// Context-lifetime cost attribution (per-site bytes/flops/seconds).
  [[nodiscard]] obs::AttributionRegistry& attribution() noexcept {
    return attribution_;
  }
  [[nodiscard]] const obs::AttributionRegistry& attribution() const noexcept {
    return attribution_;
  }

  /// Run a bulk job on the worker pool under the compute-engine lock.  All
  /// device kernels funnel through here so threads sharing the context never
  /// race on the pool's dispatch state.
  void run_compute(const std::function<void(usize)>& job);

  /// Trace-track ids of this device's virtual-timeline rows (within
  /// obs::kVirtualPid): (kLinkTid, kComputeTid) = (1, 2) for a context,
  /// (2i+1, 2i+2) for its peer i, so per-device timelines stay disjoint in
  /// one trace.
  [[nodiscard]] std::uint32_t link_tid() const noexcept { return link_tid_; }
  [[nodiscard]] std::uint32_t compute_tid() const noexcept {
    return compute_tid_;
  }

 private:
  /// Peer `index` of `root`.
  DeviceContext(DeviceContext& root, usize index);

  void meter_transfer(usize bytes, double measured_seconds, CopyDir dir);
  void attribute_transfer(const char* site, usize bytes, CopyDir dir);
  void attribute_kernel(const obs::KernelCost& cost, double duration);

  std::unique_ptr<ThreadPool> owned_pool_;  // null on a peer
  ThreadPool* pool_;
  TransferModel model_;
  obs::AttributionRegistry attribution_;
  DeviceCounters counters_;
  usize memory_limit_bytes_ = 0;

  mutable std::mutex meter_mu_;   // counters + virtual timeline
  std::mutex compute_mu_;         // the pool is a single compute engine
  double virtual_now_ = 0;        // end of the virtual timeline
  TransferRetryPolicy retry_;
  double kernel_bytes_per_sec_ = 0;
  double kernel_latency_seconds_ = 0;
  std::uint32_t link_tid_ = obs::kLinkTid;
  std::uint32_t compute_tid_ = obs::kComputeTid;

  // Declared last so the peers go before the pool they run on.
  mutable std::mutex peers_mu_;
  std::vector<std::unique_ptr<DeviceContext>> peers_;  // peer i at [i - 1]
};

/// Process-wide default device (lazy-constructed), like cudaSetDevice(0).
DeviceContext& default_device();

/// Run `body`, absorbing transient DeviceTransferErrors with the context's
/// bounded exponential backoff.  The body must be idempotent up to its
/// metering (every instrumented site checks fault::triggered *before*
/// touching data or counters, so a retried transfer meters exactly once).
/// Rethrows — annotated with `site` — once the budget is exhausted or the
/// error is permanent.
template <class Fn>
auto run_transfer_with_retry(DeviceContext& ctx, const char* site, Fn&& body) {
  const TransferRetryPolicy policy = ctx.transfer_retry();
  double backoff = policy.backoff_seconds;
  for (index_t attempt = 0;; ++attempt) {
    try {
      return body();
    } catch (DeviceError& e) {
      e.annotate_site(site);
      if (!e.transient() || attempt >= policy.max_retries) throw;
      ctx.record_transfer_retry(site, backoff);
      backoff *= 2;
    }
  }
}

/// Metered raw-pointer copies (cudaMemcpy on sub-ranges of device buffers):
/// the SpMV wave stages its x and y segments with these.
template <class T>
void copy_h2d(DeviceContext& ctx, T* dev, const T* host, usize n) {
  run_transfer_with_retry(ctx, "copy.h2d", [&] {
    if (fault::triggered("copy.h2d")) {
      throw DeviceTransferError("copy.h2d", n * sizeof(T), true);
    }
    WallTimer t;
    if (n != 0) std::memcpy(dev, host, n * sizeof(T));
    ctx.record_h2d(n * sizeof(T), t.seconds(), "copy.h2d");
  });
}

template <class T>
void copy_d2h(DeviceContext& ctx, T* host, const T* dev, usize n) {
  run_transfer_with_retry(ctx, "copy.d2h", [&] {
    if (fault::triggered("copy.d2h")) {
      throw DeviceTransferError("copy.d2h", n * sizeof(T), false);
    }
    WallTimer t;
    if (n != 0) std::memcpy(host, dev, n * sizeof(T));
    ctx.record_d2h(n * sizeof(T), t.seconds(), "copy.d2h");
  });
}

/// Device-resident array of trivially-copyable T.
///
/// Host code must not dereference device data directly in library code; use
/// copy_to_host / copy_from_host (cudaMemcpy equivalents).  Kernels receive
/// raw pointers via data().
template <class T>
class DeviceBuffer {
 public:
  DeviceBuffer() noexcept : ctx_(nullptr) {}

  /// "cudaMalloc": allocate n uninitialized elements on the device.
  DeviceBuffer(DeviceContext& ctx, usize n)
      : ctx_(&ctx), storage_(n, AlignedBuffer<T>::uninitialized) {
    ctx_->record_alloc(storage_.size_bytes());
  }

  /// Allocate and upload in one step (cudaMalloc + cudaMemcpyHostToDevice).
  DeviceBuffer(DeviceContext& ctx, std::span<const T> host)
      : DeviceBuffer(ctx, host.size()) {
    copy_from_host(host);
  }

  DeviceBuffer(DeviceBuffer&& other) noexcept { swap(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  ~DeviceBuffer() { release(); }

  void swap(DeviceBuffer& other) noexcept {
    std::swap(ctx_, other.ctx_);
    storage_.swap(other.storage_);
  }

  /// cudaMemcpyHostToDevice.
  void copy_from_host(std::span<const T> host) {
    FASTSC_CHECK(host.size() == storage_.size(),
                 "host span size must match device buffer size");
    run_transfer_with_retry(*ctx_, "device.h2d", [&] {
      if (fault::triggered("device.h2d")) {
        throw DeviceTransferError("device.h2d", host.size_bytes(), true);
      }
      WallTimer t;
      if (!host.empty()) {
        std::memcpy(storage_.data(), host.data(), host.size_bytes());
      }
      ctx_->record_h2d(host.size_bytes(), t.seconds(), "device.h2d");
    });
  }

  /// cudaMemcpyDeviceToHost.
  void copy_to_host(std::span<T> host) const {
    FASTSC_CHECK(host.size() == storage_.size(),
                 "host span size must match device buffer size");
    run_transfer_with_retry(*ctx_, "device.d2h", [&] {
      if (fault::triggered("device.d2h")) {
        throw DeviceTransferError("device.d2h", host.size_bytes(), false);
      }
      WallTimer t;
      if (!host.empty()) {
        std::memcpy(host.data(), storage_.data(), host.size_bytes());
      }
      ctx_->record_d2h(host.size_bytes(), t.seconds(), "device.d2h");
    });
  }

  /// Convenience: download into a new host vector.
  [[nodiscard]] std::vector<T> to_host() const {
    std::vector<T> out(storage_.size());
    copy_to_host(std::span<T>(out));
    return out;
  }

  /// Device pointer (for kernels and device algorithms only).
  [[nodiscard]] T* data() noexcept { return storage_.data(); }
  [[nodiscard]] const T* data() const noexcept { return storage_.data(); }
  [[nodiscard]] usize size() const noexcept { return storage_.size(); }
  [[nodiscard]] bool empty() const noexcept { return storage_.empty(); }
  [[nodiscard]] usize size_bytes() const noexcept {
    return storage_.size_bytes();
  }
  [[nodiscard]] DeviceContext* context() const noexcept { return ctx_; }

  [[nodiscard]] std::span<T> device_span() noexcept { return storage_.span(); }
  [[nodiscard]] std::span<const T> device_span() const noexcept {
    return storage_.span();
  }

 private:
  void release() noexcept {
    if (ctx_ != nullptr) ctx_->record_free(storage_.size_bytes());
    ctx_ = nullptr;
    storage_.reset();
  }

  DeviceContext* ctx_ = nullptr;
  AlignedBuffer<T> storage_;
};

/// Kernel launch geometry, mirroring <<<grid, block>>>.
struct LaunchConfig {
  index_t block = 256;

  /// Virtual-timeline duration override in seconds.  < 0 (default) uses the
  /// context's kernel cost model when set, else the measured wall time of
  /// the kernel body; >= 0 substitutes this duration both on the timeline
  /// and in DeviceCounters::kernel_seconds, which lets tests and explicit
  /// cost formulas (the shard gather/scatter kernels) charge deterministic
  /// time.
  double modeled_seconds = -1.0;

  /// Attribution site for this launch (stable dotted lowercase identifier,
  /// e.g. "spmv.csr").  nullptr falls back to the innermost
  /// obs::AttrSiteScope on the launching thread, then to "unattributed".
  const char* site = nullptr;

  /// Modeled work of the whole launch, for per-site arithmetic intensity
  /// and roofline utilization.  Negative (default) estimates one flop and
  /// 8 bytes read + 8 bytes written per logical thread.
  double flops = -1.0;
  double bytes_read = -1.0;
  double bytes_written = -1.0;

  /// Blocks needed to cover n logical threads.
  [[nodiscard]] index_t grid_for(index_t n) const noexcept {
    return (n + block - 1) / block;
  }
};

/// Shorthand for the common launch-tagging call shape: name the site and
/// (optionally) the modeled flops / bytes of the whole launch.
inline LaunchConfig tagged(const char* site, double flops = -1.0,
                           double bytes_read = -1.0,
                           double bytes_written = -1.0) {
  LaunchConfig cfg;
  cfg.site = site;
  cfg.flops = flops;
  cfg.bytes_read = bytes_read;
  cfg.bytes_written = bytes_written;
  return cfg;
}

/// Launch `kernel(i)` for every global thread id i in [0, n), blocking until
/// completion (default-stream semantics).  Kernel time is appended to the
/// context's virtual timeline.
template <class Kernel>
void launch(DeviceContext& ctx, index_t n, const Kernel& kernel,
            LaunchConfig cfg = {}) {
  obs::KernelCost cost;
  cost.site = cfg.site;
  const double work = static_cast<double>(n > 0 ? n : 0);
  cost.flops = cfg.flops >= 0 ? cfg.flops : (work > 0 ? work : 1.0);
  cost.bytes_read = cfg.bytes_read >= 0 ? cfg.bytes_read : 8.0 * work;
  cost.bytes_written = cfg.bytes_written >= 0 ? cfg.bytes_written : 8.0 * work;
  if (n <= 0) {
    ctx.record_kernel(0.0, 0.0, cost);  // an empty launch is free
    return;
  }
  WallTimer t;
  const auto workers = static_cast<index_t>(ctx.pool().worker_count());
  if (workers == 1) {
    for (index_t i = 0; i < n; ++i) kernel(i);
  } else {
    const index_t chunk = (n + workers - 1) / workers;
    std::function<void(usize)> job = [&](usize w) {
      const index_t lo = static_cast<index_t>(w) * chunk;
      const index_t hi = lo + chunk < n ? lo + chunk : n;
      for (index_t i = lo; i < hi; ++i) kernel(i);
    };
    ctx.run_compute(job);
  }
  ctx.record_kernel(t.seconds(), cfg.modeled_seconds, cost);
}

}  // namespace fastsc::device
