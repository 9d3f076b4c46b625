#include "device/stream.h"

#include "common/cancel.h"
#include "obs/attribution.h"
#include "obs/trace.h"

namespace fastsc::device {

Stream::Stream(DeviceContext& ctx, std::string name)
    : ctx_(ctx), name_(std::move(name)), thread_([this] { thread_main(); }) {}

Stream::~Stream() {
  // Drain outstanding work, swallowing a sticky error the owner never
  // collected (CUDA would surface it on the next API call; there is none).
  try {
    synchronize();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  thread_.join();
}

void Stream::enqueue_op(std::function<void()> fn, bool always_run,
                        std::string label) {
  Op op;
  op.fn = std::move(fn);
  // An op cannot start, on the virtual timeline, before the moment the
  // issuing thread enqueued it.
  op.issue_virtual_time = ctx_.current_clock_now();
  op.always_run = always_run;
  op.label = std::move(label);
  op.obs = obs::current_obs_bindings();
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(op));
  }
  work_ready_.notify_one();
}

void Stream::record(const Event& event) {
  enqueue_op(
      [this, event] {
        event.mark_recorded(ctx_, ctx_.clock_now(clock_));
      },
      /*always_run=*/true, {});
}

void Stream::wait(const Event& event) {
  enqueue_op([event] { event.wait(); }, /*always_run=*/false, {});
}

void Stream::synchronize() {
  std::unique_lock lock(mu_);
  drained_.wait(lock, [this] { return queue_.empty() && !busy_; });
  const std::exception_ptr error = error_;
  error_ = nullptr;
  lock.unlock();
  // Join point: the caller's timeline cannot be earlier than the work it
  // just waited for.
  ctx_.sync_current_clock_to(ctx_.clock_now(clock_));
  if (error) std::rethrow_exception(error);
}

bool Stream::idle() const {
  std::lock_guard lock(mu_);
  return queue_.empty() && !busy_;
}

void Stream::thread_main() {
  // Label this thread's wall-clock trace track after the stream so node
  // spans land on a recognizable lane in the viewer.
  obs::name_this_thread(name_);
  for (;;) {
    Op op;
    {
      std::unique_lock lock(mu_);
      busy_ = false;
      if (queue_.empty()) drained_.notify_all();
      work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_) return;
      op = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
      if (error_ && !op.always_run) continue;  // skip past a sticky error
    }
    ctx_.advance_clock_to(clock_, op.issue_virtual_time);
    DeviceContext::ClockScope scope(clock_);
    obs::ObsBindScope obs_scope(op.obs);
    cancel::stream_busy(true);
    try {
      // Real work (not fences/records) honours cancellation before
      // executing.
      if (!op.always_run) {
        if (cancel::pending("stream.queue")) {
          throw cancel::CancelledError("stream op cancelled before execution",
                                       op.label.empty() ? "stream.queue"
                                                        : op.label);
        }
      }
      op.fn();
    } catch (DeviceError& e) {
      // Annotate the in-flight exception (same object under
      // std::current_exception) so the sticky error surfaces the
      // *originating* op's site without losing its concrete type.
      e.annotate_site(op.label);
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    } catch (cancel::CancelledError& e) {
      // Same first-wins site annotation; deliberately a distinct type so the
      // degradation ladder unwinds instead of retrying a cancelled run.
      e.annotate_site(op.label);
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    cancel::stream_busy(false);
    cancel::heartbeat();
  }
}

}  // namespace fastsc::device
