// Cooperative cancellation, run budgets, and a hang watchdog.
//
// Long-running stages (IRLM restarts, CG iterations, Lloyd sweeps, thread-pool
// chunks, similarity construction) poll a process-wide governor at bounded
// intervals.  When nothing is armed — no budget, no external token, no
// watchdog, no test instrumentation — every poll site reduces to a single
// relaxed atomic load, the same discipline as `fault::triggered` (see
// src/fault/fault.h).
//
// Three poll flavours, by how the caller can react:
//   poll(site)     throws CancelledError; for sequential code that unwinds.
//   pending(site)  never throws; for thread-pool workers that must not
//                  propagate exceptions through `run_workers`.
//   expired(site)  soft deadline check at an "anytime" boundary (e.g. a Lloyd
//                  sweep): returns true when the caller should stop and keep
//                  its best-so-far result.  Hard cancellations (external
//                  token, anytime=0 budgets) still throw.
//
// Budgets are charged against the wall clock *and* the device virtual
// timeline (DeviceCounters::modeled_transfer_seconds).  Virtual limits are
// evaluated synchronously at poll sites, so a virtual-budget expiry lands at
// the same poll of the same iteration on every run — budget-expiry tests are
// exactly reproducible, including under TSan.  Wall limits are additionally
// enforced by a monitor thread so a wedged stage cannot outlive its deadline.
//
// The watchdog converts hangs into cancellations: no residual improvement
// across N IRLM restarts, a stale heartbeat while a kernel launch is in
// flight (the `device.hang` fault site wedges one), or a transfer exceeding
// k x its transfer-model estimate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fastsc::cancel {

// --- error ------------------------------------------------------------------

/// Thrown when a poll site observes a cancellation request.  Deliberately
/// *not* a device::DeviceError: the degradation ladder retries DeviceErrors
/// on a lower rung, but a cancelled run must unwind, not retry.  Carries the
/// same first-wins site annotation as DeviceError so a CancelledError keeps
/// the site that raised it as it unwinds through outer layers.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
  CancelledError(const std::string& what_arg, std::string_view site)
      : std::runtime_error(what_arg) {
    annotate_site(site);
  }

  /// Records the poll site (first annotation wins).
  void annotate_site(std::string_view site) {
    if (site_.empty() && !site.empty()) {
      site_ = std::string(site);
      annotated_ = std::string(std::runtime_error::what()) +
                   " [site: " + site_ + "]";
    }
  }

  [[nodiscard]] const std::string& site() const noexcept { return site_; }

  [[nodiscard]] const char* what() const noexcept override {
    return annotated_.empty() ? std::runtime_error::what()
                              : annotated_.c_str();
  }

 private:
  std::string site_;
  std::string annotated_;
};

// --- token ------------------------------------------------------------------

namespace detail {
struct TokenState {
  std::atomic<bool> cancelled{false};
};
}  // namespace detail

class CancelSource;

/// Read side of a cancellation flag.  Copyable, cheap, thread-safe; a
/// default-constructed token is valid-less and never reports cancellation.
class CancelToken {
 public:
  CancelToken() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool cancelled() const noexcept {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const detail::TokenState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<const detail::TokenState> state_;
};

/// Write side: hand `token()` to a SpectralConfig, call `request_cancel()`
/// from any thread to stop the run at its next poll site.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::TokenState>()) {}

  void request_cancel() noexcept {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return state_->cancelled.load(std::memory_order_relaxed);
  }
  [[nodiscard]] CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<detail::TokenState> state_;
};

// --- budget -----------------------------------------------------------------

/// One limit pair; 0 means "unlimited" on that axis.
struct StageLimit {
  double wall_ms = 0;          ///< wall-clock milliseconds
  double virtual_seconds = 0;  ///< device modeled-transfer seconds
  [[nodiscard]] bool enabled() const {
    return wall_ms > 0 || virtual_seconds > 0;
  }
};

/// Run budget: a total limit plus optional per-stage limits, keyed by the
/// core::kStage* names ("similarity", "eigensolver", "kmeans").
///
/// Spec grammar (';'-separated `key=value` clauses):
///   total=<ms>             total wall budget in milliseconds
///   total.virtual=<s>      total virtual budget in modeled seconds
///   <stage>=<ms>           per-stage wall budget
///   <stage>.virtual=<s>    per-stage virtual budget
///   anytime=0|1            partial results on expiry (default 1)
/// A bare number is shorthand for `total=<ms>`.  FASTSC_BUDGET accepts the
/// same grammar.
struct RunBudget {
  StageLimit total;
  std::map<std::string, StageLimit> stages;
  /// On expiry, snapshot the best partial eigenpairs and still run k-means
  /// (BudgetReport.anytime == true) instead of throwing CancelledError.
  bool anytime = true;

  [[nodiscard]] bool enabled() const;
  [[nodiscard]] static RunBudget parse(std::string_view spec);
  [[nodiscard]] std::string to_string() const;
};

/// Parses FASTSC_BUDGET once per process; empty budget when unset.
[[nodiscard]] const RunBudget& env_budget();

// --- watchdog ---------------------------------------------------------------

/// Hang detection.  Each heuristic is off at its zero value.
/// Spec grammar (',' or ';'-separated `key=value`): stall_restarts=<n>,
/// stall_rtol=<x>, heartbeat_ms=<ms>, transfer_overrun=<k>, poll_ms=<ms>.
struct WatchdogConfig {
  /// Fire after this many consecutive IRLM restarts whose worst residual
  /// improved by less than stall_rtol (relative).  Deterministic against the
  /// `lanczos.convergence` stall fault.
  int stall_restarts = 0;
  double stall_rtol = 1e-3;
  /// Fire when the device is busy (a kernel launch in flight) but none
  /// completed for this long.
  double heartbeat_timeout_ms = 0;
  /// Fire when a transfer's measured time exceeds this factor times its
  /// transfer-model estimate.
  double transfer_overrun_factor = 0;
  /// Monitor-thread sampling period (heartbeat + wall deadlines).
  double poll_interval_ms = 10;

  [[nodiscard]] bool enabled() const {
    return stall_restarts > 0 || heartbeat_timeout_ms > 0 ||
           transfer_overrun_factor > 0;
  }
  [[nodiscard]] static WatchdogConfig parse(std::string_view spec);
  [[nodiscard]] std::string to_string() const;
};

// --- report -----------------------------------------------------------------

struct StageSpend {
  std::string stage;
  double wall_ms_limit = 0;
  double wall_ms_spent = 0;
  double virtual_limit_seconds = 0;
  double virtual_spent_seconds = 0;
  bool expired_here = false;
};

/// Folded into SpectralResult and the run-report JSON ("budget" section).
struct BudgetReport {
  bool enabled = false;         ///< a budget/watchdog/token governed the run
  bool expired = false;         ///< a budget limit fired
  bool watchdog_fired = false;  ///< the watchdog fired
  bool anytime = false;         ///< result is a partial ("anytime") answer
  std::string reason;           ///< e.g. "budget.eigensolver.virtual"
  std::string cancel_site;      ///< poll site where cancellation surfaced
  std::string expired_stage;    ///< stage active when the deadline hit
  double total_wall_ms_limit = 0;
  double total_wall_ms_spent = 0;
  double total_virtual_limit_seconds = 0;
  double total_virtual_spent_seconds = 0;
  std::vector<StageSpend> stages;
};

// --- governor ---------------------------------------------------------------

class Governor;

namespace detail {
/// Count of governors with anything armed (budget, watchdog, external token,
/// recording mode, or a test trip rule) across the process.  The *only* cost
/// at a poll site when every governor is disarmed is one relaxed load of
/// this counter.
extern std::atomic<int> g_active;

/// Thread-local governor binding: null means "use the process default".
/// Service executors bind a per-job governor so concurrent jobs poll, expire
/// and cancel independently; ThreadPool::run_workers propagates the
/// dispatcher's binding into the workers for the duration of a bulk job.
[[nodiscard]] Governor* bound_governor() noexcept;
void bind_governor(Governor* g) noexcept;

void on_poll(std::string_view site);               // may throw CancelledError
[[nodiscard]] bool on_pending(std::string_view site) noexcept;
[[nodiscard]] bool on_expired(std::string_view site);  // may throw
[[nodiscard]] bool on_interrupted(std::string_view site) noexcept;
void on_heartbeat() noexcept;
void on_device_busy(bool busy) noexcept;
}  // namespace detail

/// Deadline/cancellation governor.  One process-wide instance (`governor()`)
/// backs plain pipeline runs, mirroring fault::injector(); the service layer
/// additionally creates one instance per job and binds it to the executing
/// thread (GovernorBindScope) so every job is individually cancellable.
/// Armed per spectral run via RunScope; stages bracketed via StageScope.
class Governor {
 public:
  Governor();
  ~Governor();
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  /// Arms budget + watchdog + optional external token.  `virtual_now`
  /// returns the device virtual timeline position in seconds (pass
  /// DeviceContext::modeled_transfer_seconds_now); may be empty when no
  /// virtual limits are used.  Starts the monitor thread when wall limits
  /// or the heartbeat watchdog need one.  No-op nesting is not supported:
  /// arming while armed throws std::logic_error.
  void arm(const RunBudget& budget, const WatchdogConfig& watchdog,
           CancelToken external, std::function<double()> virtual_now);
  void disarm();
  [[nodiscard]] bool armed() const;

  void begin_stage(std::string_view stage);
  void end_stage();

  /// Entering anytime wrap-up: enforcement stops (polls become no-ops) so the
  /// remaining pipeline — k-means on the partial embedding — can complete.
  void begin_wrapup(std::string_view detail);
  [[nodiscard]] bool wrapup_active() const;

  /// True when a cancellation has fired whose cause permits a partial
  /// result (budget expiry or watchdog with anytime enabled).
  [[nodiscard]] bool anytime_allowed() const;
  [[nodiscard]] bool cancel_requested() const;

  /// Hard external cancellation (also used by the watchdog internally).
  void request_cancel(std::string_view reason);

  [[nodiscard]] BudgetReport report() const;

  // Watchdog feeds.
  void note_solver_progress(double worst_residual);
  void note_transfer(std::string_view site, double measured_seconds,
                     double modeled_seconds);

  // Test instrumentation (mirrors fault recording / nth-trip).
  void set_recording(bool on);
  [[nodiscard]] std::vector<std::string> sites_seen() const;
  /// Fires a cancellation at the nth visit of `site` (exact match).
  void set_trip(std::string_view site, std::uint64_t nth);
  void clear_trip();
  /// Poll-site visits observed after the cancellation fired — the
  /// "bounded work after cancellation" metric.
  [[nodiscard]] std::uint64_t polls_after_fire() const;
  /// Clears fired/trip/recording state (test teardown; requires disarmed).
  void reset_for_test();

 private:
  friend void detail::on_poll(std::string_view);
  friend bool detail::on_pending(std::string_view) noexcept;
  friend bool detail::on_expired(std::string_view);
  friend bool detail::on_interrupted(std::string_view) noexcept;
  friend void detail::on_heartbeat() noexcept;
  friend void detail::on_device_busy(bool) noexcept;

  struct Impl;
  [[nodiscard]] Impl& impl() const { return *impl_; }
  std::unique_ptr<Impl> impl_;
};

/// Process-wide default governor (plain pipeline runs, env budgets, tests).
[[nodiscard]] Governor& governor();

/// The governor poll sites consult: the thread-bound instance when a
/// GovernorBindScope is active on this thread (or was propagated by
/// ThreadPool), else the process default.
[[nodiscard]] Governor& current_governor() noexcept;

/// Binds `g` as the calling thread's governor for the scope's lifetime
/// (null rebinds to the process default).  The service's executor threads
/// wrap each job in one of these so the pipeline's internal RunScope arms
/// the job's own governor instead of the shared one.
class GovernorBindScope {
 public:
  explicit GovernorBindScope(Governor* g) noexcept
      : previous_(detail::bound_governor()) {
    detail::bind_governor(g);
  }
  ~GovernorBindScope() { detail::bind_governor(previous_); }
  GovernorBindScope(const GovernorBindScope&) = delete;
  GovernorBindScope& operator=(const GovernorBindScope&) = delete;

 private:
  Governor* previous_;
};

// --- poll sites -------------------------------------------------------------

/// Throwing poll for sequential code; one relaxed load when disarmed.
inline void poll(std::string_view site) {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return;
  detail::on_poll(site);
}

/// Non-throwing poll for thread-pool workers: true means "stop doing work";
/// the sequential coordinator surfaces the error.
[[nodiscard]] inline bool pending(std::string_view site) noexcept {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return false;
  return detail::on_pending(site);
}

/// Soft deadline check at an anytime boundary: true = keep best-so-far and
/// stop.  Throws instead when the cancellation cause forbids partial results.
[[nodiscard]] inline bool expired(std::string_view site) {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return false;
  return detail::on_expired(site);
}

/// Hard-cancellation check for parallel chunk boundaries: true only when the
/// cause forbids partial results (external token, test trip, anytime=0
/// budgets).  Anytime expiries deliberately return false so a parallel
/// primitive completes and the deadline surfaces at the next algorithm
/// boundary instead of tearing a half-written output buffer.
[[nodiscard]] inline bool interrupted(std::string_view site) noexcept {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return false;
  return detail::on_interrupted(site);
}

/// Device liveness feeds, driven by every kernel launch
/// (device::LaunchLiveness).  Deliberately *not* gated on
/// g_active: the busy count must stay balanced across arm/disarm
/// boundaries, and both are single relaxed fetch_adds — negligible next to
/// a kernel launch.
inline void heartbeat() noexcept { detail::on_heartbeat(); }
inline void device_busy(bool busy) noexcept { detail::on_device_busy(busy); }

/// Watchdog feeds with the disarmed-fast-path gate.
inline void note_progress(double worst_residual) {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return;
  current_governor().note_solver_progress(worst_residual);
}
inline void note_transfer(std::string_view site, double measured_seconds,
                          double modeled_seconds) {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return;
  current_governor().note_transfer(site, measured_seconds, modeled_seconds);
}

// --- RAII -------------------------------------------------------------------

/// Arms the calling thread's current governor for one spectral run; disarms
/// on scope exit.  When that governor is already armed (nested pipeline,
/// e.g. a baseline comparison driving spectral_cluster twice) the inner
/// scope is a no-op and the outer budget keeps governing.  Scoping is
/// per-governor: two service jobs, each bound to its own Governor via
/// GovernorBindScope, arm and expire independently — the first-wins
/// semantics only apply within one governor instance.
class RunScope {
 public:
  RunScope(const RunBudget& budget, const WatchdogConfig& watchdog,
           CancelToken external, std::function<double()> virtual_now);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  [[nodiscard]] bool armed_here() const noexcept { return armed_; }

 private:
  Governor* governor_ = nullptr;  ///< the instance this scope armed
  bool armed_ = false;
};

/// Brackets one pipeline stage for per-stage budget accounting; no-op when
/// the governor is idle.
class StageScope {
 public:
  explicit StageScope(std::string_view stage);
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace fastsc::cancel
