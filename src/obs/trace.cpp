#include "obs/trace.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "common/log.h"
#include "common/timer.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace fastsc::obs {

namespace {

thread_local TraceRecorder* t_bound_trace = nullptr;

void mirror_event(const TraceEvent& e) {
  if (e.phase == 'C') {
    FASTSC_LOG_TRACE("counter " << e.name << " = "
                                << (e.args.empty() ? 0.0 : e.args[0].num)
                                << " @" << e.ts_us << "us");
  } else {
    FASTSC_LOG_TRACE("span end " << e.cat << "/" << e.name << " track="
                                 << e.pid << ":" << e.tid << " ts=" << e.ts_us
                                 << "us dur=" << e.dur_us << "us");
  }
}

}  // namespace

bool TraceRecorder::env_enabled() {
  const char* env = std::getenv("FASTSC_TRACE");
  if (env == nullptr) return false;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0 &&
         std::strcmp(env, "") != 0;
}

void TraceRecorder::complete(std::uint32_t pid, std::uint32_t tid,
                             std::string_view name, std::string_view cat,
                             double ts_us, double dur_us,
                             std::vector<TraceArg> args) {
  if (tee_ != nullptr) tee_->complete(pid, tid, name, cat, ts_us, dur_us, args);
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::string(name);
  e.cat = std::string(cat);
  e.phase = 'X';
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = pid;
  e.tid = tid;
  e.args = std::move(args);
  if (log_level() <= LogLevel::kTrace) mirror_event(e);
  std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

void TraceRecorder::counter(std::string_view name, double value, double ts_us,
                            std::uint32_t pid) {
  if (tee_ != nullptr) tee_->counter(name, value, ts_us, pid);
  if (!enabled()) return;
  TraceEvent e;
  e.name = std::string(name);
  e.cat = "counter";
  e.phase = 'C';
  e.ts_us = ts_us;
  e.pid = pid;
  e.tid = 0;
  e.args.emplace_back("value", value);
  if (log_level() <= LogLevel::kTrace) mirror_event(e);
  std::lock_guard lock(mu_);
  events_.push_back(std::move(e));
}

std::int64_t TraceRecorder::add_counter(Counter& c, std::string_view name,
                                        std::int64_t delta) {
  std::lock_guard lock(mu_);
  const std::int64_t value =
      tee_ != nullptr ? tee_->add_counter(c, name, delta) : c.add(delta);
  if (enabled()) {
    TraceEvent e;
    e.name = std::string(name);
    e.cat = "counter";
    e.phase = 'C';
    e.ts_us = wall_now_us();
    e.args.emplace_back("value", static_cast<double>(value));
    if (log_level() <= LogLevel::kTrace) mirror_event(e);
    events_.push_back(std::move(e));
  }
  return value;
}

void TraceRecorder::name_track(std::uint32_t pid, std::uint32_t tid,
                               std::string name) {
  if (tee_ != nullptr) tee_->name_track(pid, tid, name);
  std::lock_guard lock(mu_);
  for (auto& [key, existing] : track_names_) {
    if (key.first == pid && key.second == tid) {
      existing = std::move(name);
      return;
    }
  }
  track_names_.push_back({{pid, tid}, std::move(name)});
}

usize TraceRecorder::event_count() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  return events_;
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  events_.clear();
}

void TraceRecorder::write_json(std::ostream& os) const {
  std::lock_guard lock(mu_);
  JsonWriter w(os);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  // Metadata first: process names for the two timebases, then track names.
  const auto meta = [&w](std::uint32_t pid, std::uint32_t tid,
                         std::string_view what, std::string_view name) {
    w.begin_object();
    w.field("name", what);
    w.field("ph", "M");
    w.field("pid", std::uint64_t{pid});
    w.field("tid", std::uint64_t{tid});
    w.key("args");
    w.begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
  };
  meta(kWallPid, 0, "process_name", "wall clock");
  meta(kVirtualPid, 0, "process_name", "device virtual timeline");
  meta(kVirtualPid, kLinkTid, "thread_name", "PCIe link");
  meta(kVirtualPid, kComputeTid, "thread_name", "compute engine");
  for (const auto& [key, name] : track_names_) {
    meta(key.first, key.second, "thread_name", name);
  }

  for (const TraceEvent& e : events_) {
    w.begin_object();
    w.field("name", e.name);
    if (!e.cat.empty()) w.field("cat", e.cat);
    w.field("ph", std::string_view(&e.phase, 1));
    w.field("ts", e.ts_us);
    if (e.phase == 'X') w.field("dur", e.dur_us);
    w.field("pid", std::uint64_t{e.pid});
    w.field("tid", std::uint64_t{e.tid});
    if (!e.args.empty()) {
      w.key("args");
      w.begin_object();
      for (const TraceArg& a : e.args) {
        if (a.is_num) {
          w.field(a.key, a.num);
        } else {
          w.field(a.key, std::string_view(a.str));
        }
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool TraceRecorder::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    FASTSC_LOG_ERROR("cannot open trace output file " << path);
    return false;
  }
  write_json(os);
  os.flush();
  if (!os) {
    FASTSC_LOG_ERROR("failed writing trace output file " << path);
    return false;
  }
  return true;
}

namespace detail {

TraceRecorder* bound_trace() noexcept { return t_bound_trace; }

TraceRecorder* set_bound_trace(TraceRecorder* recorder) noexcept {
  TraceRecorder* previous = t_bound_trace;
  t_bound_trace = recorder;
  return previous;
}

}  // namespace detail

TraceRecorder& trace() {
  static TraceRecorder recorder;
  return t_bound_trace != nullptr ? *t_bound_trace : recorder;
}

bool trace_enabled() { return trace().enabled(); }

TraceBindScope::TraceBindScope(TraceRecorder* recorder)
    : previous_(t_bound_trace), active_(recorder != nullptr) {
  if (active_) t_bound_trace = recorder;
}

TraceBindScope::~TraceBindScope() {
  if (active_) t_bound_trace = previous_;
}

double wall_now_us() { return monotonic_seconds() * 1e6; }

std::int64_t bump(std::string_view name, std::int64_t delta) {
  Counter& c = metrics().counter(name);
  return trace_enabled() ? trace().add_counter(c, name, delta) : c.add(delta);
}

void name_this_thread(std::string name) {
  trace().name_track(kWallPid, small_thread_id(), std::move(name));
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view cat,
                       std::vector<TraceArg> args) {
  record_ = trace_enabled();
  mirror_ = log_level() <= LogLevel::kTrace;
  if (!record_ && !mirror_) return;
  name_ = std::string(name);
  cat_ = std::string(cat);
  args_ = std::move(args);
  start_us_ = wall_now_us();
  if (mirror_) {
    FASTSC_LOG_TRACE("span begin " << cat_ << "/" << name_ << " ts="
                                   << start_us_ << "us");
  }
}

ScopedSpan::~ScopedSpan() {
  if (!record_ && !mirror_) return;
  const double end_us = wall_now_us();
  if (record_) {
    trace().complete(kWallPid, small_thread_id(), name_, cat_, start_us_,
                     end_us - start_us_, std::move(args_));
  } else if (mirror_) {
    // Not recording: complete() will not run, so mirror the end here.
    FASTSC_LOG_TRACE("span end " << cat_ << "/" << name_ << " ts=" << start_us_
                                 << "us dur=" << (end_us - start_us_) << "us");
  }
}

TraceEnableScope::TraceEnableScope(bool enable) : enable_(enable) {
  if (enable_) trace().push_scope_enable();
}

TraceEnableScope::~TraceEnableScope() {
  if (enable_) trace().pop_scope_enable();
}

}  // namespace fastsc::obs
