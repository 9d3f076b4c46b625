// Trace recorder: Chrome trace-event / Perfetto-compatible timelines.
//
// The paper's evaluation is entirely observability — per-stage wall times
// (Tables III-VI) and the communication/computation split (Table VII) — and
// the device timeline needs per-event inspection, not just end-of-run
// aggregates.  This recorder collects spans and counter samples
// from any thread and writes the JSON that chrome://tracing and
// https://ui.perfetto.dev load directly.
//
// Two timebases, rendered as two "processes" in the trace viewer:
//  * pid kVirtualPid — the device runtime's *virtual* timeline: every H2D /
//    D2H / D2D copy is a span on the device's modeled-link track and every
//    kernel a span on its compute-engine track, at the exact begin/end
//    DeviceContext metered.  A device runs one operation at a time, so its
//    two tracks merged are pairwise disjoint and their durations sum to
//    DeviceCounters::modeled_pipeline_seconds() (tools/check_trace.py and
//    tests/test_trace.cpp verify this).
//
// Enablement: FASTSC_TRACE=1 at startup, set_enabled(), or a
// TraceEnableScope (SpectralConfig::trace routes through one).  When
// disabled every record call is a single relaxed atomic load and an early
// return — no allocation, no lock — so instrumented code paths cost nothing
// in production.  With FASTSC_LOG=trace, recorded events are additionally
// mirrored to stderr as log lines.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace fastsc::obs {

class Counter;  // obs/metrics.h

/// Trace "process" ids (trackable groups in the viewer).
inline constexpr std::uint32_t kWallPid = 1;     ///< real wall-clock spans
inline constexpr std::uint32_t kVirtualPid = 2;  ///< device virtual timeline

/// Thread ids within kVirtualPid: the two serialized device resources.
inline constexpr std::uint32_t kLinkTid = 1;     ///< modeled PCIe link
inline constexpr std::uint32_t kComputeTid = 2;  ///< compute engine

/// One numeric or string argument attached to an event.
struct TraceArg {
  TraceArg(std::string k, double v) : key(std::move(k)), num(v) {}
  TraceArg(std::string k, std::string v)
      : key(std::move(k)), str(std::move(v)), is_num(false) {}

  std::string key;
  double num = 0;
  std::string str;
  bool is_num = true;
};

/// One trace-event-format record.  ts/dur are microseconds (the format's
/// native unit): wall events since the process epoch, virtual events since
/// device-context creation.
struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'X';  // 'X' complete span, 'C' counter
  double ts_us = 0;
  double dur_us = 0;  // complete spans only
  std::uint32_t pid = kWallPid;
  std::uint32_t tid = 0;
  std::vector<TraceArg> args;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed) ||
           scope_enables_.load(std::memory_order_relaxed) > 0;
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Scoped enablement refcount (TraceEnableScope).  Independent of the
  /// sticky set_enabled() flag, so N concurrent scopes compose: tracing
  /// stays on until the last scope pops, instead of the first destructor
  /// blindly restoring a stale snapshot and turning tracing off under a
  /// still-running job.
  void push_scope_enable() noexcept {
    scope_enables_.fetch_add(1, std::memory_order_relaxed);
  }
  void pop_scope_enable() noexcept {
    scope_enables_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Forward every event recorded here to `tee` as well (the per-job
  /// recorders the service binds point their tee at the global recorder, so
  /// a job-scoped trace never hides events from the process-wide one).  Set
  /// before the recorder is shared across threads; not synchronized.
  void set_tee(TraceRecorder* tee) noexcept { tee_ = tee; }

  /// Record a complete span ('X').  No-op when disabled.
  void complete(std::uint32_t pid, std::uint32_t tid, std::string_view name,
                std::string_view cat, double ts_us, double dur_us,
                std::vector<TraceArg> args = {});

  /// Record a counter sample ('C'); the viewer plots the series per name.
  void counter(std::string_view name, double value, double ts_us,
               std::uint32_t pid = kWallPid);

  /// Add `delta` to the cumulative counter `c` and record its new value as
  /// a counter sample named `name`.  The fetch_add, the timestamp and the
  /// append all run under this recorder's lock (a tee is locked inside it:
  /// per-job -> global, never the reverse), so concurrent bumps can never
  /// record a decreasing series.  Returns the new value.
  std::int64_t add_counter(Counter& c, std::string_view name,
                           std::int64_t delta);

  /// Attach a human-readable name to a (pid, tid) track; written as
  /// trace-viewer metadata.  Cheap and always recorded (once per thread),
  /// so worker threads can register themselves before tracing turns on.
  void name_track(std::uint32_t pid, std::uint32_t tid, std::string name);

  [[nodiscard]] usize event_count() const;
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  void clear();

  /// Write the {"traceEvents": [...]} JSON document.
  void write_json(std::ostream& os) const;
  /// Write to a file; returns false (and logs) on I/O failure.
  bool write_json_file(const std::string& path) const;

 private:
  static bool env_enabled();

  std::atomic<bool> enabled_{env_enabled()};
  std::atomic<int> scope_enables_{0};
  TraceRecorder* tee_ = nullptr;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::string>>
      track_names_;
};

namespace detail {
/// The per-thread bound recorder (TraceBindScope), or nullptr.
[[nodiscard]] TraceRecorder* bound_trace() noexcept;
/// Rebind unconditionally (including to nullptr); returns the previous
/// binding.  Cross-thread propagation (obs::ObsBindScope) uses this.
TraceRecorder* set_bound_trace(TraceRecorder* recorder) noexcept;
}  // namespace detail

/// The recorder instrumentation on this thread targets: the bound per-job
/// recorder inside a TraceBindScope, the process-wide recorder otherwise.
TraceRecorder& trace();

/// Fast check instrumentation sites guard on (bound-or-global recorder).
[[nodiscard]] bool trace_enabled();

/// RAII binding of a per-job recorder to the calling thread: while bound,
/// trace() resolves to `recorder` instead of the global one.  Give the
/// recorder a tee at the global recorder if process-wide artifacts should
/// still see the job's events.  A null recorder is a no-op.
class TraceBindScope {
 public:
  explicit TraceBindScope(TraceRecorder* recorder);
  ~TraceBindScope();
  TraceBindScope(const TraceBindScope&) = delete;
  TraceBindScope& operator=(const TraceBindScope&) = delete;

 private:
  TraceRecorder* previous_;
  bool active_;
};

/// Wall-clock microseconds since the process monotonic epoch (the wall
/// timebase of every kWallPid event).
[[nodiscard]] double wall_now_us();

/// Bump the registry counter `name` (obs::metrics()) by `delta` and, when
/// tracing, mirror its new cumulative value into the trace in fetch order
/// (TraceRecorder::add_counter).  Returns the new value.
std::int64_t bump(std::string_view name, std::int64_t delta = 1);

/// Register a name for the calling thread's wall track.
void name_this_thread(std::string name);

/// RAII wall-clock span on the calling thread's track of the global
/// recorder.  Inactive (no allocation) unless tracing is enabled or the log
/// level is `trace` (which mirrors begin/end lines to stderr).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view cat = "span",
                      std::vector<TraceArg> args = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool record_ = false;
  bool mirror_ = false;
  double start_us_ = 0;
  std::string name_;
  std::string cat_;
  std::vector<TraceArg> args_;
};

/// Enable tracing for a scope (SpectralConfig::trace plumbs through this).
/// Refcounted, not save/restore: each enabling scope holds one reference on
/// the recorder, so nested and concurrent scopes (two service jobs tracing
/// at once) keep tracing on until the last one exits.  A scope constructed
/// with enable=false holds no reference and never changes state.
class TraceEnableScope {
 public:
  explicit TraceEnableScope(bool enable);
  ~TraceEnableScope();

  TraceEnableScope(const TraceEnableScope&) = delete;
  TraceEnableScope& operator=(const TraceEnableScope&) = delete;

 private:
  bool enable_;
};

}  // namespace fastsc::obs
