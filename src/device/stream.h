// Streams: asynchronous, ordered device work queues (cudaStream_t
// equivalent).
//
// A Stream owns one worker thread draining a FIFO of ops.  Ops on the same
// stream execute in enqueue order; ops on different streams execute
// concurrently unless ordered through Events.  Each stream carries a
// VirtualClock: its copies occupy the modeled PCIe link and its kernels the
// compute engine on the context's virtual timeline, which is how
// transfer/compute overlap becomes measurable
// (DeviceCounters::overlapped_seconds) even though the simulated copies are
// host memcpys.
//
//   * launch_async      — stream-ordered kernel launch (returns immediately)
//   * copy_to_device_async — cudaMemcpyAsync H2D.  The source is snapshotted
//     into a pinned-staging block from the context's PinnedPool at enqueue
//     time, so the caller may overwrite its buffer right away.
//   * copy_to_host_async — cudaMemcpyAsync D2H.  The destination must stay
//     valid until the stream is synchronized (the CUDA contract).
//   * record / wait     — event ordering edges between streams
//   * synchronize       — cudaStreamSynchronize; joins the stream's virtual
//     clock into the caller's and rethrows the first op error (sticky,
//     cleared on throw)
//
// Error model: the first throwing op (e.g. DeviceOutOfMemory from an async
// allocation) is captured; subsequent ops are skipped, except event records
// which always fire so dependent streams cannot deadlock on a failed
// producer.
#pragma once

#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "common/timer.h"
#include "common/types.h"
#include "device/device.h"
#include "device/event.h"

namespace fastsc::device {

class Stream {
 public:
  explicit Stream(DeviceContext& ctx, std::string name = "stream");
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] DeviceContext& context() noexcept { return ctx_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Enqueue a raw op.  It runs on the stream thread with metering routed to
  /// this stream's virtual clock, so any device call made inside (launch,
  /// DeviceBuffer copies, dblas/sparse routines) is attributed to the
  /// stream's timeline.
  void enqueue(std::function<void()> op) {
    enqueue_op(std::move(op), false, {});
  }

  /// Like enqueue, but a sticky error raised by this op is annotated with
  /// `label` so synchronize() can report where the failure originated.
  void enqueue_labeled(std::string label, std::function<void()> op) {
    enqueue_op(std::move(op), false, std::move(label));
  }

  /// Stream-ordered kernel launch over [0, n).
  template <class Kernel>
  void launch_async(index_t n, Kernel kernel, LaunchConfig cfg = {}) {
    enqueue_labeled("stream.launch", [this, n, kernel = std::move(kernel), cfg] {
      launch(ctx_, n, kernel, cfg);
    });
  }

  /// cudaMemcpyAsync host->device through a pinned staging block: `host` is
  /// snapshotted now and may be reused immediately.
  template <class T>
  void copy_to_device_async(T* dev, std::span<const T> host) {
    auto block = std::make_shared<PinnedPool::Block>(
        ctx_.staging_pool().acquire(host.size_bytes()));
    if (!host.empty()) {
      std::memcpy(block->data(), host.data(), host.size_bytes());
    }
    enqueue_labeled("stream.h2d", [this, dev, block] {
      run_transfer_with_retry(ctx_, "stream.h2d", [&] {
        if (fault::triggered("stream.h2d")) {
          throw DeviceTransferError("stream.h2d", block->size(), true);
        }
        WallTimer t;
        if (!block->empty()) std::memcpy(dev, block->data(), block->size());
        ctx_.record_h2d(block->size(), t.seconds(), "stream.h2d");
      });
      ctx_.staging_pool().release(std::move(*block));
    });
  }

  template <class T>
  void copy_to_device_async(DeviceBuffer<T>& dst, std::span<const T> host) {
    FASTSC_CHECK(host.size() == dst.size(),
                 "host span size must match device buffer size");
    copy_to_device_async(dst.data(), host);
  }

  /// cudaMemcpyAsync device->host; `host` must outlive the next
  /// synchronize() on this stream.
  template <class T>
  void copy_to_host_async(std::span<T> host, const T* dev) {
    enqueue_labeled("stream.d2h", [this, host, dev] {
      run_transfer_with_retry(ctx_, "stream.d2h", [&] {
        if (fault::triggered("stream.d2h")) {
          throw DeviceTransferError("stream.d2h", host.size_bytes(), false);
        }
        WallTimer t;
        if (!host.empty()) {
          std::memcpy(host.data(), dev, host.size_bytes());
        }
        ctx_.record_d2h(host.size_bytes(), t.seconds(), "stream.d2h");
      });
    });
  }

  template <class T>
  void copy_to_host_async(std::span<T> host, const DeviceBuffer<T>& src) {
    FASTSC_CHECK(host.size() == src.size(),
                 "host span size must match device buffer size");
    copy_to_host_async(host, src.data());
  }

  /// cudaEventRecord: the event fires once every op enqueued before this
  /// call has retired, stamped with the stream's virtual time.  Fires even
  /// if an earlier op failed (see error model above).
  void record(const Event& event);

  /// cudaStreamWaitEvent with fence semantics: ops enqueued after this wait
  /// do not run until the event records; the stream clock then advances to
  /// the event timestamp.
  void wait(const Event& event);

  /// Host callback (cudaLaunchHostFunc): runs in stream order on the stream
  /// thread, unmetered.
  void add_callback(std::function<void()> fn) { enqueue(std::move(fn)); }

  /// Block until the queue drains; joins this stream's virtual clock into
  /// the caller's clock and rethrows the first captured op error.
  void synchronize();

  /// True when no op is queued or executing (cudaStreamQuery).
  [[nodiscard]] bool idle() const;

  /// This stream's virtual-timeline position, in modeled seconds.
  [[nodiscard]] double virtual_now() const {
    return ctx_.clock_now(clock_);
  }

 private:
  struct Op {
    std::function<void()> fn;
    double issue_virtual_time = 0;
    bool always_run = false;  // event records fire even after an error
    std::string label;        // site annotation for sticky errors
    /// The enqueuing thread's observability bindings (per-job attribution
    /// registry / trace recorder / site scope), re-adopted by the stream
    /// thread for the op's execution so async work is attributed to the job
    /// that issued it.
    obs::ObsBindings obs;
  };

  void enqueue_op(std::function<void()> fn, bool always_run,
                  std::string label);
  void thread_main();

  DeviceContext& ctx_;
  std::string name_;
  VirtualClock clock_;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable drained_;
  std::deque<Op> queue_;
  bool busy_ = false;
  bool shutdown_ = false;
  std::exception_ptr error_;

  std::thread thread_;  // last: starts after all state above is ready
};

}  // namespace fastsc::device
