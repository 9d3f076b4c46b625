#include "common/cancel.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fastsc::cancel {

namespace detail {
std::atomic<int> g_active{0};

namespace {
/// Thread-local governor binding; null = "use the process default".
/// Plain pointer: bound governors outlive their binding scopes by contract
/// (GovernorBindScope restores the previous binding before the job's
/// governor is destroyed).
thread_local Governor* t_bound = nullptr;
}  // namespace

Governor* bound_governor() noexcept { return t_bound; }
void bind_governor(Governor* g) noexcept { t_bound = g; }
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

double parse_nonneg(std::string_view what, std::string_view v) {
  double x = -1;
  try {
    x = std::stod(std::string(v));
  } catch (const std::exception&) {
    x = -1;
  }
  if (!(x >= 0)) {
    throw std::invalid_argument("budget/watchdog spec: key '" +
                                std::string(what) +
                                "' expects a non-negative number, got '" +
                                std::string(v) + "'");
  }
  return x;
}

bool parse_bool(std::string_view what, std::string_view v) {
  if (v == "1" || v == "true" || v == "on") return true;
  if (v == "0" || v == "false" || v == "off") return false;
  throw std::invalid_argument("budget spec: key '" + std::string(what) +
                              "' expects 0/1, got '" + std::string(v) + "'");
}

bool known_stage(std::string_view s) {
  // Mirrors core::kStage*; cancel sits below core/ so the names are repeated
  // here rather than included (validated by a test against the constants).
  return s == "similarity" || s == "eigensolver" || s == "kmeans";
}

/// Bumps each counter by one, mirrored onto the trace (obs::bump); called
/// outside locks.
void emit_counters(const std::vector<std::string>& names,
                   const std::string& warn) {
  for (const std::string& n : names) obs::bump(n);
  if (!warn.empty()) {
    FASTSC_LOG_WARN(warn);
  }
}

}  // namespace

// --- RunBudget --------------------------------------------------------------

bool RunBudget::enabled() const {
  if (total.enabled()) return true;
  for (const auto& [_, limit] : stages) {
    if (limit.enabled()) return true;
  }
  return false;
}

RunBudget RunBudget::parse(std::string_view spec) {
  RunBudget budget;
  const std::string_view whole = trim(spec);
  if (whole.empty()) return budget;
  if (whole.find('=') == std::string_view::npos &&
      whole.find(';') == std::string_view::npos) {
    budget.total.wall_ms = parse_nonneg("total", whole);
    return budget;
  }
  usize pos = 0;
  while (pos <= whole.size()) {
    const usize semi = std::min(whole.find(';', pos), whole.size());
    const std::string_view clause = trim(whole.substr(pos, semi - pos));
    pos = semi + 1;
    if (clause.empty()) continue;
    const usize eq = clause.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("budget spec: clause '" +
                                  std::string(clause) +
                                  "' is not key=value");
    }
    const std::string_view key = trim(clause.substr(0, eq));
    const std::string_view value = trim(clause.substr(eq + 1));
    if (key == "anytime") {
      budget.anytime = parse_bool(key, value);
      continue;
    }
    constexpr std::string_view kVirtualSuffix = ".virtual";
    bool virt = false;
    std::string_view base = key;
    if (key.size() > kVirtualSuffix.size() &&
        key.substr(key.size() - kVirtualSuffix.size()) == kVirtualSuffix) {
      virt = true;
      base = key.substr(0, key.size() - kVirtualSuffix.size());
    }
    StageLimit* limit = nullptr;
    if (base == "total") {
      limit = &budget.total;
    } else if (known_stage(base)) {
      limit = &budget.stages[std::string(base)];
    } else {
      throw std::invalid_argument(
          "budget spec: unknown stage '" + std::string(base) +
          "' (expected total, similarity, eigensolver, or kmeans)");
    }
    if (virt) {
      limit->virtual_seconds = parse_nonneg(key, value);
    } else {
      limit->wall_ms = parse_nonneg(key, value);
    }
  }
  return budget;
}

std::string RunBudget::to_string() const {
  std::ostringstream os;
  const char* sep = "";
  auto put = [&](const std::string& base, const StageLimit& l) {
    if (l.wall_ms > 0) {
      os << sep << base << "=" << l.wall_ms;
      sep = ";";
    }
    if (l.virtual_seconds > 0) {
      os << sep << base << ".virtual=" << l.virtual_seconds;
      sep = ";";
    }
  };
  put("total", total);
  for (const auto& [name, limit] : stages) put(name, limit);
  if (!anytime) {
    os << sep << "anytime=0";
    sep = ";";
  }
  return os.str();
}

const RunBudget& env_budget() {
  static const RunBudget budget = [] {
    RunBudget b;
    if (const char* spec = std::getenv("FASTSC_BUDGET")) {
      try {
        b = RunBudget::parse(spec);
      } catch (const std::exception& e) {
        FASTSC_LOG_WARN("ignoring invalid FASTSC_BUDGET: " << e.what());
      }
    }
    return b;
  }();
  return budget;
}

// --- WatchdogConfig ---------------------------------------------------------

WatchdogConfig WatchdogConfig::parse(std::string_view spec) {
  WatchdogConfig w;
  const std::string_view whole = trim(spec);
  usize pos = 0;
  while (pos <= whole.size()) {
    usize end = whole.size();
    for (usize i = pos; i < whole.size(); ++i) {
      if (whole[i] == ',' || whole[i] == ';') {
        end = i;
        break;
      }
    }
    const std::string_view clause = trim(whole.substr(pos, end - pos));
    pos = end + 1;
    if (clause.empty()) continue;
    const usize eq = clause.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("watchdog spec: clause '" +
                                  std::string(clause) +
                                  "' is not key=value");
    }
    const std::string_view key = trim(clause.substr(0, eq));
    const std::string_view value = trim(clause.substr(eq + 1));
    if (key == "stall_restarts") {
      w.stall_restarts = static_cast<int>(parse_nonneg(key, value));
    } else if (key == "stall_rtol") {
      w.stall_rtol = parse_nonneg(key, value);
    } else if (key == "heartbeat_ms") {
      w.heartbeat_timeout_ms = parse_nonneg(key, value);
    } else if (key == "transfer_overrun") {
      w.transfer_overrun_factor = parse_nonneg(key, value);
    } else if (key == "poll_ms") {
      w.poll_interval_ms = parse_nonneg(key, value);
      if (w.poll_interval_ms <= 0) {
        throw std::invalid_argument("watchdog spec: poll_ms must be > 0");
      }
    } else {
      throw std::invalid_argument("watchdog spec: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  return w;
}

std::string WatchdogConfig::to_string() const {
  std::ostringstream os;
  const char* sep = "";
  auto put = [&](const char* key, double v) {
    os << sep << key << "=" << v;
    sep = ",";
  };
  if (stall_restarts > 0) {
    put("stall_restarts", stall_restarts);
    put("stall_rtol", stall_rtol);
  }
  if (heartbeat_timeout_ms > 0) put("heartbeat_ms", heartbeat_timeout_ms);
  if (transfer_overrun_factor > 0) {
    put("transfer_overrun", transfer_overrun_factor);
  }
  if (enabled()) put("poll_ms", poll_interval_ms);
  return os.str();
}

// --- Governor::Impl ---------------------------------------------------------

struct Governor::Impl {
  enum class Cause { kNone, kExternal, kTrip, kWatchdog, kBudget };

  mutable std::mutex mu;

  // Armed-run state.
  bool armed = false;
  bool wrapup = false;
  RunBudget budget;
  WatchdogConfig watchdog;
  CancelToken external;
  std::function<double()> virtual_now;
  bool has_virtual_limit = false;
  Clock::time_point run_wall_start{};
  double run_virtual_start = 0;
  bool in_stage = false;
  std::string stage;
  Clock::time_point stage_wall_start{};
  double stage_virtual_start = 0;
  std::vector<StageSpend> completed;

  // Cancellation state (first cause wins).
  Cause cause = Cause::kNone;
  std::string reason;
  std::string cancel_site;
  std::string expired_stage;

  // Stall watchdog.
  double best_residual = std::numeric_limits<double>::infinity();
  int stalled_restarts = 0;

  // Liveness feeds — bare atomics, written by launching threads without mu.
  std::atomic<std::uint64_t> heartbeat_ticks{0};
  std::atomic<int> busy_devices{0};

  // Monitor thread (wall deadlines + heartbeat staleness).
  std::thread monitor;
  std::condition_variable cv;
  bool stop_monitor = false;

  // Test instrumentation.
  bool recording = false;
  std::set<std::string> sites;
  bool trip_set = false;
  std::string trip_site;
  std::uint64_t trip_nth = 1;
  std::uint64_t trip_seen = 0;
  std::atomic<std::uint64_t> after_fire{0};

  /// Whether this instance currently holds a +1 in detail::g_active.
  bool active_contrib = false;

  ~Impl() {
    // A destroyed governor must drop its contribution or every poll site in
    // the process pays the slow path forever.
    if (active_contrib) {
      detail::g_active.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void refresh_active_locked() {
    const bool want = armed || recording || trip_set || cause != Cause::kNone;
    if (want != active_contrib) {
      detail::g_active.fetch_add(want ? 1 : -1, std::memory_order_relaxed);
      active_contrib = want;
    }
  }

  void fire_locked(Cause c, std::string why, const std::string& subcounter,
                   std::vector<std::string>& counters, std::string& warn) {
    if (cause != Cause::kNone) return;
    cause = c;
    reason = std::move(why);
    if (in_stage) expired_stage = stage;
    switch (c) {
      case Cause::kBudget:
        counters.push_back("budget.expired");
        break;
      case Cause::kWatchdog:
        counters.push_back("watchdog.fired");
        break;
      default:
        counters.push_back("cancel.requested");
        break;
    }
    if (!subcounter.empty()) counters.push_back(subcounter);
    warn = "cancellation fired: " + reason;
    refresh_active_locked();
  }

  void check_budget_locked(bool include_virtual,
                           std::vector<std::string>& counters,
                           std::string& warn) {
    if (!armed || cause != Cause::kNone) return;
    const auto now = Clock::now();
    if (budget.total.wall_ms > 0 &&
        ms_between(run_wall_start, now) > budget.total.wall_ms) {
      fire_locked(Cause::kBudget, "budget.total.wall", "budget.expired.total",
                  counters, warn);
      return;
    }
    const StageLimit* stage_limit = nullptr;
    if (in_stage) {
      const auto it = budget.stages.find(stage);
      if (it != budget.stages.end()) stage_limit = &it->second;
    }
    if (stage_limit != nullptr && stage_limit->wall_ms > 0 &&
        ms_between(stage_wall_start, now) > stage_limit->wall_ms) {
      fire_locked(Cause::kBudget, "budget." + stage + ".wall",
                  "budget.expired." + stage, counters, warn);
      return;
    }
    if (!include_virtual || !has_virtual_limit || !virtual_now) return;
    const double vn = virtual_now();
    if (budget.total.virtual_seconds > 0 &&
        vn - run_virtual_start > budget.total.virtual_seconds) {
      fire_locked(Cause::kBudget, "budget.total.virtual",
                  "budget.expired.total", counters, warn);
      return;
    }
    if (stage_limit != nullptr && stage_limit->virtual_seconds > 0 &&
        vn - stage_virtual_start > stage_limit->virtual_seconds) {
      fire_locked(Cause::kBudget, "budget." + stage + ".virtual",
                  "budget.expired." + stage, counters, warn);
    }
  }

  /// Per-poll bookkeeping: recording, trip rules, external token, budget
  /// deadlines, first-site capture, after-fire counting.
  void evaluate_locked(std::string_view site,
                       std::vector<std::string>& counters, std::string& warn) {
    if (recording) sites.insert(std::string(site));
    if (trip_set && site == trip_site) {
      ++trip_seen;
      if (trip_seen == trip_nth) {
        fire_locked(Cause::kTrip, "trip:" + std::string(site),
                    "cancel.requested.trip", counters, warn);
      }
    }
    if (armed && cause == Cause::kNone && external.cancelled()) {
      fire_locked(Cause::kExternal, "external", "cancel.requested.external",
                  counters, warn);
    }
    check_budget_locked(/*include_virtual=*/true, counters, warn);
    if (cause != Cause::kNone && !wrapup) {
      after_fire.fetch_add(1, std::memory_order_relaxed);
      if (cancel_site.empty() && !site.empty()) {
        cancel_site = std::string(site);
        counters.push_back("cancel.cancelled");
        counters.push_back("cancel.cancelled." + cancel_site);
      }
    }
  }

  [[nodiscard]] bool anytime_allowed_locked() const {
    return (cause == Cause::kBudget || cause == Cause::kWatchdog) &&
           budget.anytime;
  }

  void monitor_main() {
    std::unique_lock lock(mu);
    std::uint64_t last_tick = heartbeat_ticks.load(std::memory_order_relaxed);
    Clock::time_point last_beat = Clock::now();
    while (!stop_monitor) {
      cv.wait_for(lock, std::chrono::duration<double, std::milli>(
                            watchdog.poll_interval_ms));
      if (stop_monitor) break;
      if (cause != Cause::kNone) continue;  // polls will surface it
      std::vector<std::string> counters;
      std::string warn;
      check_budget_locked(/*include_virtual=*/false, counters, warn);
      if (cause == Cause::kNone && watchdog.heartbeat_timeout_ms > 0) {
        const auto tick = heartbeat_ticks.load(std::memory_order_relaxed);
        const bool busy = busy_devices.load(std::memory_order_relaxed) > 0;
        const auto now = Clock::now();
        if (tick != last_tick || !busy) {
          last_tick = tick;
          last_beat = now;
        } else if (ms_between(last_beat, now) > watchdog.heartbeat_timeout_ms) {
          fire_locked(Cause::kWatchdog, "watchdog.heartbeat",
                      "watchdog.fired.heartbeat", counters, warn);
        }
      }
      if (!counters.empty()) {
        lock.unlock();
        emit_counters(counters, warn);
        lock.lock();
      }
    }
  }
};

Governor::Governor() : impl_(std::make_unique<Impl>()) {}

Governor::~Governor() {
  // Per-job governors die with their job; make sure the monitor thread is
  // gone and the active contribution is dropped (Impl::~Impl backstops the
  // latter for instances destroyed with trip/recording state set).
  disarm();
}

Governor& governor() {
  // Leaked deliberately: it must outlive every other static that may poll it
  // or feed it heartbeats during static destruction (device contexts and
  // their worker pools), whatever order they were constructed in.
  static Governor* instance = new Governor;
  return *instance;
}

Governor& current_governor() noexcept {
  Governor* bound = detail::bound_governor();
  return bound != nullptr ? *bound : governor();
}

// --- Governor methods -------------------------------------------------------

void Governor::arm(const RunBudget& budget, const WatchdogConfig& watchdog,
                   CancelToken external, std::function<double()> virtual_now) {
  Impl& I = impl();
  bool need_monitor = false;
  {
    std::lock_guard lock(I.mu);
    if (I.armed) {
      throw std::logic_error("cancel governor already armed");
    }
    I.armed = true;
    I.wrapup = false;
    I.budget = budget;
    I.watchdog = watchdog;
    I.external = std::move(external);
    I.virtual_now = std::move(virtual_now);
    I.has_virtual_limit = budget.total.virtual_seconds > 0;
    bool any_stage_wall = false;
    for (const auto& [_, limit] : budget.stages) {
      I.has_virtual_limit = I.has_virtual_limit || limit.virtual_seconds > 0;
      any_stage_wall = any_stage_wall || limit.wall_ms > 0;
    }
    I.run_wall_start = Clock::now();
    I.run_virtual_start = I.virtual_now ? I.virtual_now() : 0;
    I.in_stage = false;
    I.stage.clear();
    I.completed.clear();
    I.cause = Impl::Cause::kNone;
    I.reason.clear();
    I.cancel_site.clear();
    I.expired_stage.clear();
    I.best_residual = std::numeric_limits<double>::infinity();
    I.stalled_restarts = 0;
    I.after_fire.store(0, std::memory_order_relaxed);
    I.stop_monitor = false;
    need_monitor = watchdog.heartbeat_timeout_ms > 0 ||
                   budget.total.wall_ms > 0 || any_stage_wall;
    if (need_monitor) {
      I.monitor = std::thread([&I] { I.monitor_main(); });
    }
    I.refresh_active_locked();
  }
}

void Governor::disarm() {
  Impl& I = impl();
  {
    std::lock_guard lock(I.mu);
    if (!I.armed) return;
    I.stop_monitor = true;
  }
  I.cv.notify_all();
  if (I.monitor.joinable()) I.monitor.join();
  {
    std::lock_guard lock(I.mu);
    I.armed = false;
    I.wrapup = false;
    I.cause = Impl::Cause::kNone;
    I.reason.clear();
    I.cancel_site.clear();
    I.expired_stage.clear();
    I.in_stage = false;
    I.stage.clear();
    I.completed.clear();
    I.external = CancelToken{};
    I.virtual_now = nullptr;
    I.has_virtual_limit = false;
    // after_fire is deliberately preserved so tests can read the bounded-
    // latency counter after the run; arm()/reset_for_test() clear it.
    I.refresh_active_locked();
  }
}

bool Governor::armed() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  return I.armed;
}

void Governor::begin_stage(std::string_view stage) {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  if (!I.armed) return;
  I.in_stage = true;
  I.stage = std::string(stage);
  I.stage_wall_start = Clock::now();
  I.stage_virtual_start = I.virtual_now ? I.virtual_now() : 0;
}

void Governor::end_stage() {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  if (!I.armed || !I.in_stage) return;
  StageSpend s;
  s.stage = I.stage;
  const auto it = I.budget.stages.find(I.stage);
  if (it != I.budget.stages.end()) {
    s.wall_ms_limit = it->second.wall_ms;
    s.virtual_limit_seconds = it->second.virtual_seconds;
  }
  s.wall_ms_spent = ms_between(I.stage_wall_start, Clock::now());
  s.virtual_spent_seconds =
      I.virtual_now ? I.virtual_now() - I.stage_virtual_start : 0;
  s.expired_here = I.cause != Impl::Cause::kNone && I.expired_stage == I.stage;
  I.completed.push_back(std::move(s));
  I.in_stage = false;
  I.stage.clear();
}

void Governor::begin_wrapup(std::string_view detail) {
  Impl& I = impl();
  std::vector<std::string> counters;
  std::string warn;
  {
    std::lock_guard lock(I.mu);
    if (I.wrapup) return;
    I.wrapup = true;
    counters.push_back("budget.anytime_results");
    warn = "producing anytime (partial) result: " + std::string(detail);
  }
  emit_counters(counters, warn);
}

bool Governor::wrapup_active() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  return I.wrapup;
}

bool Governor::anytime_allowed() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  return I.anytime_allowed_locked();
}

bool Governor::cancel_requested() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  return I.cause != Impl::Cause::kNone && !I.wrapup;
}

void Governor::request_cancel(std::string_view reason) {
  Impl& I = impl();
  std::vector<std::string> counters;
  std::string warn;
  {
    std::lock_guard lock(I.mu);
    I.fire_locked(Impl::Cause::kExternal, std::string(reason),
                  "cancel.requested.manual", counters, warn);
  }
  emit_counters(counters, warn);
}

BudgetReport Governor::report() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  BudgetReport r;
  if (!I.armed) return r;
  r.enabled = true;
  r.expired = I.cause == Impl::Cause::kBudget;
  r.watchdog_fired = I.cause == Impl::Cause::kWatchdog;
  r.anytime = I.wrapup;
  r.reason = I.reason;
  r.cancel_site = I.cancel_site;
  r.expired_stage = I.expired_stage;
  r.total_wall_ms_limit = I.budget.total.wall_ms;
  r.total_wall_ms_spent = ms_between(I.run_wall_start, Clock::now());
  r.total_virtual_limit_seconds = I.budget.total.virtual_seconds;
  r.total_virtual_spent_seconds =
      I.virtual_now ? I.virtual_now() - I.run_virtual_start : 0;
  r.stages = I.completed;
  if (I.in_stage) {
    StageSpend s;
    s.stage = I.stage;
    const auto it = I.budget.stages.find(I.stage);
    if (it != I.budget.stages.end()) {
      s.wall_ms_limit = it->second.wall_ms;
      s.virtual_limit_seconds = it->second.virtual_seconds;
    }
    s.wall_ms_spent = ms_between(I.stage_wall_start, Clock::now());
    s.virtual_spent_seconds =
        I.virtual_now ? I.virtual_now() - I.stage_virtual_start : 0;
    s.expired_here =
        I.cause != Impl::Cause::kNone && I.expired_stage == I.stage;
    r.stages.push_back(std::move(s));
  }
  return r;
}

void Governor::note_solver_progress(double worst_residual) {
  Impl& I = impl();
  std::vector<std::string> counters;
  std::string warn;
  {
    std::lock_guard lock(I.mu);
    if (!I.armed || I.watchdog.stall_restarts <= 0 ||
        I.cause != Impl::Cause::kNone) {
      return;
    }
    const bool improved =
        worst_residual < I.best_residual * (1.0 - I.watchdog.stall_rtol);
    if (improved) {
      I.stalled_restarts = 0;
    } else {
      I.stalled_restarts += 1;
    }
    if (worst_residual < I.best_residual) I.best_residual = worst_residual;
    if (I.stalled_restarts >= I.watchdog.stall_restarts) {
      I.fire_locked(Impl::Cause::kWatchdog,
                    "watchdog.stall after " +
                        std::to_string(I.stalled_restarts) +
                        " flat restarts",
                    "watchdog.fired.stall", counters, warn);
    }
  }
  emit_counters(counters, warn);
}

void Governor::note_transfer(std::string_view site, double measured_seconds,
                             double modeled_seconds) {
  Impl& I = impl();
  std::vector<std::string> counters;
  std::string warn;
  {
    std::lock_guard lock(I.mu);
    if (!I.armed || I.watchdog.transfer_overrun_factor <= 0 ||
        I.cause != Impl::Cause::kNone || modeled_seconds <= 0) {
      return;
    }
    if (measured_seconds >
        I.watchdog.transfer_overrun_factor * modeled_seconds) {
      I.fire_locked(Impl::Cause::kWatchdog,
                    "watchdog.transfer_overrun at " + std::string(site),
                    "watchdog.fired.transfer_overrun", counters, warn);
    }
  }
  emit_counters(counters, warn);
}

void Governor::set_recording(bool on) {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  I.recording = on;
  if (on) I.sites.clear();
  I.refresh_active_locked();
}

std::vector<std::string> Governor::sites_seen() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  return {I.sites.begin(), I.sites.end()};
}

void Governor::set_trip(std::string_view site, std::uint64_t nth) {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  I.trip_set = true;
  I.trip_site = std::string(site);
  I.trip_nth = nth == 0 ? 1 : nth;
  I.trip_seen = 0;
  I.refresh_active_locked();
}

void Governor::clear_trip() {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  I.trip_set = false;
  I.refresh_active_locked();
}

std::uint64_t Governor::polls_after_fire() const {
  return impl().after_fire.load(std::memory_order_relaxed);
}

void Governor::reset_for_test() {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  if (I.armed) {
    throw std::logic_error("reset_for_test while the governor is armed");
  }
  I.wrapup = false;
  I.cause = Impl::Cause::kNone;
  I.reason.clear();
  I.cancel_site.clear();
  I.expired_stage.clear();
  I.completed.clear();
  I.recording = false;
  I.sites.clear();
  I.trip_set = false;
  I.trip_seen = 0;
  I.after_fire.store(0, std::memory_order_relaxed);
  I.best_residual = std::numeric_limits<double>::infinity();
  I.stalled_restarts = 0;
  I.refresh_active_locked();
}

// --- poll-site slow paths ---------------------------------------------------

namespace detail {

void on_poll(std::string_view site) {
  Governor::Impl& I = current_governor().impl();
  std::vector<std::string> counters;
  std::string warn;
  bool do_throw = false;
  std::string reason_copy;
  {
    std::lock_guard lock(I.mu);
    I.evaluate_locked(site, counters, warn);
    if (I.cause != Governor::Impl::Cause::kNone && !I.wrapup) {
      do_throw = true;
      reason_copy = I.reason;
    }
  }
  emit_counters(counters, warn);
  if (do_throw) {
    throw CancelledError("run cancelled: " + reason_copy, site);
  }
}

bool on_pending(std::string_view site) noexcept {
  try {
    Governor::Impl& I = current_governor().impl();
    std::vector<std::string> counters;
    std::string warn;
    bool result = false;
    {
      std::lock_guard lock(I.mu);
      I.evaluate_locked(site, counters, warn);
      result = I.cause != Governor::Impl::Cause::kNone && !I.wrapup;
    }
    emit_counters(counters, warn);
    return result;
  } catch (...) {
    return true;  // catastrophic (allocation) failure: stop doing work
  }
}

bool on_expired(std::string_view site) {
  Governor::Impl& I = current_governor().impl();
  std::vector<std::string> counters;
  std::string warn;
  bool soft_stop = false;
  bool do_throw = false;
  std::string reason_copy;
  {
    std::lock_guard lock(I.mu);
    I.evaluate_locked(site, counters, warn);
    if (I.cause != Governor::Impl::Cause::kNone && !I.wrapup) {
      if (I.anytime_allowed_locked()) {
        soft_stop = true;
      } else {
        do_throw = true;
        reason_copy = I.reason;
      }
    }
  }
  emit_counters(counters, warn);
  if (do_throw) {
    throw CancelledError("run cancelled: " + reason_copy, site);
  }
  return soft_stop;
}

bool on_interrupted(std::string_view site) noexcept {
  try {
    Governor::Impl& I = current_governor().impl();
    std::vector<std::string> counters;
    std::string warn;
    bool result = false;
    {
      std::lock_guard lock(I.mu);
      I.evaluate_locked(site, counters, warn);
      result = I.cause != Governor::Impl::Cause::kNone && !I.wrapup &&
               !I.anytime_allowed_locked();
    }
    emit_counters(counters, warn);
    return result;
  } catch (...) {
    return true;  // catastrophic (allocation) failure: stop doing work
  }
}

void on_heartbeat() noexcept {
  // Kernel launches feed the launching thread's governor, so a service
  // job's heartbeat watchdog watches its own launches; unbound threads feed
  // the process default.
  current_governor().impl().heartbeat_ticks.fetch_add(
      1, std::memory_order_relaxed);
}

void on_device_busy(bool busy) noexcept {
  current_governor().impl().busy_devices.fetch_add(
      busy ? 1 : -1, std::memory_order_relaxed);
}

}  // namespace detail

// --- RAII -------------------------------------------------------------------

RunScope::RunScope(const RunBudget& budget, const WatchdogConfig& watchdog,
                   CancelToken external, std::function<double()> virtual_now)
    : governor_(&current_governor()) {
  if (governor_->armed()) return;  // nested run: outer budget keeps governing
  governor_->arm(budget, watchdog, std::move(external),
                 std::move(virtual_now));
  armed_ = true;
}

RunScope::~RunScope() {
  if (armed_) governor_->disarm();
}

StageScope::StageScope(std::string_view stage) {
  cancel::Governor& g = current_governor();
  if (!g.armed()) return;
  g.begin_stage(stage);
  active_ = true;
}

StageScope::~StageScope() {
  if (active_) current_governor().end_stage();
}

}  // namespace fastsc::cancel
