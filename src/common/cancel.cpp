#include "common/cancel.h"

#include <chrono>
#include <mutex>
#include <set>

#include "common/log.h"
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

// --- Governor::Impl ---------------------------------------------------------

struct Governor::Impl {
  /// kDeadline is the wall deadline or a trip on an armed run, soft when
  /// the run allows anytime results; kHard is the external token or a trip
  /// on a disarmed governor.
  enum class Cause { kNone, kHard, kDeadline };

  mutable std::mutex mu;

  // Armed-run state.
  bool armed = false;
  bool wrapup = false;
  RunBudget budget;
  CancelToken external;
  Clock::time_point run_wall_start{};

  // Cancellation state (first cause wins).
  Cause cause = Cause::kNone;
  std::string reason;
  std::string cancel_site;

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

  void fire_locked(Cause c, std::string why,
                   std::vector<std::string>& counters, std::string& warn) {
    if (cause != Cause::kNone) return;
    cause = c;
    reason = std::move(why);
    counters.push_back(c == Cause::kDeadline ? "budget.expired"
                                             : "cancel.requested");
    warn = "cancellation fired: " + reason;
    refresh_active_locked();
  }

  void check_budget_locked(std::vector<std::string>& counters,
                           std::string& warn) {
    if (!armed || cause != Cause::kNone || !budget.enabled()) return;
    if (ms_between(run_wall_start, Clock::now()) > budget.wall_ms) {
      fire_locked(Cause::kDeadline, "budget.wall", counters, warn);
    }
  }

  /// Per-poll bookkeeping: recording, trip rules, external token, the wall
  /// deadline, first-site capture, after-fire counting.
  void evaluate_locked(std::string_view site,
                       std::vector<std::string>& counters, std::string& warn) {
    if (recording) sites.insert(std::string(site));
    if (trip_set && site == trip_site && ++trip_seen == trip_nth) {
      fire_locked(armed ? Cause::kDeadline : Cause::kHard,
                  "trip:" + std::string(site), counters, warn);
    }
    if (armed && cause == Cause::kNone && external.cancelled()) {
      fire_locked(Cause::kHard, "external", counters, warn);
    }
    check_budget_locked(counters, warn);
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
    return cause == Cause::kDeadline && budget.anytime;
  }

  /// What a poll site should do once it has been evaluated.
  enum class Verdict { kRun, kSoftStop, kHardStop };

  /// One poll-site visit; `why` is set when the verdict is a stop.
  Verdict visit(std::string_view site, std::string& why) {
    std::vector<std::string> counters;
    std::string warn;
    Verdict v = Verdict::kRun;
    {
      std::lock_guard lock(mu);
      evaluate_locked(site, counters, warn);
      if (cause != Cause::kNone && !wrapup) {
        v = anytime_allowed_locked() ? Verdict::kSoftStop : Verdict::kHardStop;
        why = reason;
      }
    }
    emit_counters(counters, warn);
    return v;
  }
};

Governor::Governor() : impl_(std::make_unique<Impl>()) {}

// Impl::~Impl drops the active contribution of a governor destroyed armed.
Governor::~Governor() = default;

Governor& governor() {
  // Leaked deliberately: it must outlive every other static that may poll it
  // during static destruction (device contexts and their worker pools),
  // whatever order they were constructed in.
  static Governor* instance = new Governor;
  return *instance;
}

Governor& current_governor() noexcept {
  Governor* bound = detail::bound_governor();
  return bound != nullptr ? *bound : governor();
}

// --- Governor methods -------------------------------------------------------

void Governor::arm(const RunBudget& budget, CancelToken external) {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  if (I.armed) {
    throw std::logic_error("cancel governor already armed");
  }
  I.armed = true;
  I.wrapup = false;
  I.budget = budget;
  I.external = std::move(external);
  I.run_wall_start = Clock::now();
  I.cause = Impl::Cause::kNone;
  I.reason.clear();
  I.cancel_site.clear();
  I.after_fire.store(0, std::memory_order_relaxed);
  I.refresh_active_locked();
}

void Governor::disarm() {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  if (!I.armed) return;
  I.armed = false;
  I.wrapup = false;
  I.cause = Impl::Cause::kNone;
  I.reason.clear();
  I.cancel_site.clear();
  I.external = CancelToken{};
  // after_fire is deliberately preserved so tests can read the bounded-
  // latency counter after the run; arm()/reset_for_test() clear it.
  I.refresh_active_locked();
}

bool Governor::armed() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  return I.armed;
}

void Governor::begin_wrapup(std::string_view detail) {
  Impl& I = impl();
  {
    std::lock_guard lock(I.mu);
    if (I.wrapup) return;
    I.wrapup = true;
  }
  emit_counters({"budget.anytime_results"},
                "producing anytime (partial) result: " + std::string(detail));
}

bool Governor::anytime_allowed() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  return I.anytime_allowed_locked();
}

BudgetReport Governor::report() const {
  Impl& I = impl();
  std::lock_guard lock(I.mu);
  BudgetReport r;
  if (!I.armed) return r;
  r.enabled = true;
  r.expired = I.cause == Impl::Cause::kDeadline;
  r.anytime = I.wrapup;
  r.reason = I.reason;
  r.cancel_site = I.cancel_site;
  r.total_wall_ms_limit = I.budget.wall_ms;
  r.total_wall_ms_spent = ms_between(I.run_wall_start, Clock::now());
  return r;
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
  I.recording = false;
  I.sites.clear();
  I.trip_set = false;
  I.trip_seen = 0;
  I.after_fire.store(0, std::memory_order_relaxed);
  I.refresh_active_locked();
}

// --- poll-site slow paths ---------------------------------------------------

namespace detail {

void on_poll(std::string_view site) {
  using Verdict = Governor::Impl::Verdict;
  std::string reason;
  if (current_governor().impl().visit(site, reason) != Verdict::kRun) {
    throw CancelledError("run cancelled: " + reason, site);
  }
}

bool on_expired(std::string_view site) {
  using Verdict = Governor::Impl::Verdict;
  std::string reason;
  const Verdict v = current_governor().impl().visit(site, reason);
  if (v == Verdict::kHardStop) {
    throw CancelledError("run cancelled: " + reason, site);
  }
  return v == Verdict::kSoftStop;
}

bool on_interrupted(std::string_view site) noexcept {
  using Verdict = Governor::Impl::Verdict;
  try {
    std::string reason;
    return current_governor().impl().visit(site, reason) ==
           Verdict::kHardStop;
  } catch (...) {
    return true;  // catastrophic (allocation) failure: stop doing work
  }
}

}  // namespace detail

// --- RAII -------------------------------------------------------------------

RunScope::RunScope(const RunBudget& budget, CancelToken external)
    : governor_(&current_governor()) {
  if (governor_->armed()) return;  // nested run: outer deadline keeps governing
  governor_->arm(budget, std::move(external));
  armed_ = true;
}

RunScope::~RunScope() {
  if (armed_) governor_->disarm();
}

}  // namespace fastsc::cancel
