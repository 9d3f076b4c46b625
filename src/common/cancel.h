// Cooperative cancellation and one wall-clock deadline.
//
// Long-running stages (IRLM waves, Lloyd sweeps, thread-pool chunks,
// similarity construction) poll the calling thread's governor at bounded
// intervals.  When nothing is armed — no deadline, no external token,
// no test instrumentation — every poll site reduces to a single relaxed
// atomic load, the same discipline as `fault::triggered` (see
// src/fault/fault.h).
//
// Three poll flavours, by how the caller can react:
//   poll(site)         throws CancelledError; for sequential code that
//                      unwinds.
//   expired(site)      soft deadline check at an "anytime" boundary (e.g. a
//                      Lloyd sweep): returns true when the caller should stop
//                      and keep its best-so-far result.  Hard cancellations
//                      (external token, anytime=0 deadlines) still throw.
//   interrupted(site)  never throws; true only for hard cancellations, so
//                      thread-pool workers stop and the coordinator surfaces
//                      the error after the join.
//
// The deadline is checked at every poll of an armed run; nothing watches the
// clock in between.  Tests that need an exactly reproducible expiry set a
// trip (`Governor::set_trip`): on an armed run it fires the deadline at the
// nth visit of a poll site.
#pragma once

#include <atomic>
#include <cstdint>
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

/// One wall-clock deadline for a whole run.
struct RunBudget {
  /// Wall-clock milliseconds from arming; 0 means no deadline.
  double wall_ms = 0;
  /// On expiry, snapshot the best partial eigenpairs and still run k-means
  /// (BudgetReport.anytime == true) instead of throwing CancelledError.
  bool anytime = true;

  [[nodiscard]] bool enabled() const { return wall_ms > 0; }
};

/// Folded into SpectralResult and the run-report JSON ("budget" section).
struct BudgetReport {
  bool enabled = false;  ///< a deadline or a cancel token governed the run
  bool expired = false;  ///< the deadline fired (wall clock or test trip)
  bool anytime = false;  ///< result is a partial ("anytime") answer
  std::string reason;       ///< "budget.wall", "trip:<site>" or "external"
  std::string cancel_site;  ///< poll site where cancellation surfaced
  double total_wall_ms_limit = 0;
  double total_wall_ms_spent = 0;
};

// --- governor ---------------------------------------------------------------

class Governor;

namespace detail {
/// Count of governors with anything armed (deadline, external token,
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
[[nodiscard]] bool on_expired(std::string_view site);  // may throw
[[nodiscard]] bool on_interrupted(std::string_view site) noexcept;
}  // namespace detail

/// Deadline/cancellation governor.  One process-wide instance (`governor()`)
/// backs plain pipeline runs, mirroring fault::injector(); the service layer
/// additionally creates one instance per job and binds it to the executing
/// thread (GovernorBindScope) so every job is individually cancellable.
/// Armed per spectral call via RunScope.
class Governor {
 public:
  Governor();
  ~Governor();
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;

  /// Arms the deadline and the optional external token.  Arming while armed
  /// throws std::logic_error.
  void arm(const RunBudget& budget, CancelToken external);
  void disarm();
  [[nodiscard]] bool armed() const;

  /// Entering anytime wrap-up: enforcement stops (polls become no-ops) so the
  /// remaining pipeline — k-means on the partial embedding — can complete.
  void begin_wrapup(std::string_view detail);

  /// True when the deadline has fired and the run allows a partial result.
  [[nodiscard]] bool anytime_allowed() const;

  [[nodiscard]] BudgetReport report() const;

  // Test instrumentation (mirrors fault recording / nth-trip).
  void set_recording(bool on);
  [[nodiscard]] std::vector<std::string> sites_seen() const;
  /// Fires at the nth visit of `site` (exact match): the deadline on an
  /// armed governor, a hard cancellation on a disarmed one.
  void set_trip(std::string_view site, std::uint64_t nth);
  void clear_trip();
  /// Poll-site visits observed after the cancellation fired — the
  /// "bounded work after cancellation" metric.
  [[nodiscard]] std::uint64_t polls_after_fire() const;
  /// Clears fired/trip/recording state (test teardown; requires disarmed).
  void reset_for_test();

 private:
  friend void detail::on_poll(std::string_view);
  friend bool detail::on_expired(std::string_view);
  friend bool detail::on_interrupted(std::string_view) noexcept;

  struct Impl;
  [[nodiscard]] Impl& impl() const { return *impl_; }
  std::unique_ptr<Impl> impl_;
};

/// Process-wide default governor (plain pipeline runs and tests).
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

/// Soft deadline check at an anytime boundary: true = keep best-so-far and
/// stop.  Throws instead when the cancellation cause forbids partial results.
[[nodiscard]] inline bool expired(std::string_view site) {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return false;
  return detail::on_expired(site);
}

/// Hard-cancellation check for parallel chunk boundaries: true only when the
/// cause forbids partial results (external token, a trip on a disarmed
/// governor, anytime=0 deadlines).  Anytime expiries deliberately return
/// false so a parallel primitive completes and the deadline surfaces at the
/// next algorithm boundary instead of tearing a half-written output buffer.
[[nodiscard]] inline bool interrupted(std::string_view site) noexcept {
  if (detail::g_active.load(std::memory_order_relaxed) == 0) return false;
  return detail::on_interrupted(site);
}

// --- RAII -------------------------------------------------------------------

/// Arms the calling thread's current governor for one spectral call; disarms
/// on scope exit.  When that governor is already armed (nested pipeline,
/// e.g. a baseline comparison driving spectral_cluster twice) the inner
/// scope is a no-op and the outer deadline keeps governing.  Scoping is
/// per-governor: two service jobs, each bound to its own Governor via
/// GovernorBindScope, arm and expire independently — the first-wins
/// semantics only apply within one governor instance.
class RunScope {
 public:
  RunScope(const RunBudget& budget, CancelToken external);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  [[nodiscard]] bool armed_here() const noexcept { return armed_; }

 private:
  Governor* governor_ = nullptr;  ///< the instance this scope armed
  bool armed_ = false;
};

}  // namespace fastsc::cancel
