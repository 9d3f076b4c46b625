// Implicitly restarted Lanczos (ARPACK dsaupd/dseupd equivalent) with a
// reverse communication interface.
//
// The paper's Algorithm 3 couples ARPACK's CPU-side iteration to GPU-side
// SpMV through reverse communication: the solver never sees the matrix, it
// only hands out a vector x and expects y = A x back.  SymLanczos preserves
// exactly that interface and cost structure:
//
//   * step() returns kMultiply when it needs y = A x; the caller reads x
//     from multiply_input(), computes the product anywhere it likes (our
//     pipeline: device_csrmv with H2D/D2H staging), writes y into
//     multiply_output() and calls step() again;
//   * the CPU-side work per restart is one dense m x m symmetric
//     eigen-decomposition plus an (l x m)(m x n) basis compaction GEMM —
//     the O(m^3) + O(n m^2) terms of the paper's Eq. 10 — and the GEMM,
//     like the Ritz extraction, runs on every core (hblas::gemm_par);
//   * restarting uses the thick-restart formulation (Wu & Simon 2000),
//     which is algebraically equivalent to ARPACK's implicit QR restart
//     with exact shifts for symmetric matrices, and numerically more robust.
//
// Every expansion step reorthogonalizes against the whole basis with blocked
// classical Gram-Schmidt, twice (CGS2), matching ARPACK's practical
// behaviour on the clustered spectra produced by graph Laplacians.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace fastsc::lanczos {

/// Which end of the spectrum to compute (ARPACK's `which` parameter).
enum class EigWhich {
  kLargestAlgebraic,   // "LA": spectral clustering on D^-1 W uses this
  kSmallestAlgebraic,  // "SA"
  kLargestMagnitude,   // "LM"
  kSmallestMagnitude,  // "SM" — converges slowly without shift-invert
};

/// Dense-kernel tier for the CPU-side restart work: kBlocked runs the basis
/// products through hblas::gemm_par; the python-like baseline models an
/// unoptimized BLAS build with the serial textbook kNaive (DESIGN.md §2).
/// On finite input both give the same bits.
enum class DenseTier { kBlocked, kNaive };

struct LanczosConfig {
  index_t n = 0;    ///< problem size
  index_t nev = 1;  ///< number of eigenpairs wanted (paper's k)
  /// Lanczos basis size m; 0 selects min(n, max(2*nev + 1, 20)), the
  /// ARPACK-style default the paper quotes as m = max(2k, ...).
  index_t ncv = 0;
  /// Relative residual tolerance: ||A v - theta v|| <= tol * ||A||_est.
  real tol = 1e-10;
  index_t max_restarts = 300;
  EigWhich which = EigWhich::kLargestAlgebraic;
  std::uint64_t seed = 42;
  DenseTier dense_tier = DenseTier::kBlocked;
  /// Optional starting vector (length n); empty selects a seeded random
  /// vector.  A good warm start (e.g. the previous solution when the matrix
  /// changed slightly) reduces restarts — ARPACK's `resid/info=1` option.
  std::vector<real> initial_vector;
  /// Capture a LanczosCheckpoint at every restart boundary, enabling
  /// restore() after a kFailed solve (degradation resume path).
  bool capture_checkpoints = false;
};

/// The Lanczos basis size of a solve for `nev` pairs of an order-n
/// problem: `ncv` (0 selects max(2*nev + 1, 20)), capped at n and raised to
/// at least min(n, nev + 2).  SymLanczos runs with exactly this size.
[[nodiscard]] index_t resolve_ncv(index_t n, index_t nev, index_t ncv);

/// Serializable restart-boundary state of a SymLanczos solve.  Restoring it
/// into a solver with an identical (n, nev, ncv, which) configuration
/// continues the iteration exactly where the checkpoint was taken.
struct LanczosCheckpoint {
  index_t n = 0;
  index_t nev = 0;
  index_t ncv = 0;
  int which = 0;
  index_t j = 0;
  index_t nkept = 0;
  real beta_last = 0;
  std::vector<real> v;  // (ncv+1) x n basis
  std::vector<real> t;  // ncv x ncv projected matrix
  index_t restart_count = 0;
  index_t matvec_count = 0;
  RngState rng;

  [[nodiscard]] bool valid() const noexcept { return n > 0 && ncv > 0; }

  /// CRC32C over the logical payload (scalars, basis, projected matrix and
  /// RNG state, chained in field order).  The save/load framing stores it so
  /// a blob flipped at rest is rejected at load; ResultCache reuses it to
  /// seal cached warm-start donors (DESIGN.md §14).
  [[nodiscard]] std::uint32_t payload_crc() const;

  /// Binary serialization (magic "FSCKPT02"; the frame ends with
  /// payload_crc()).  Throws on a bad stream; load throws
  /// device::DataIntegrityError when the payload fails its CRC.
  void save(std::ostream& os) const;
  [[nodiscard]] static LanczosCheckpoint load(std::istream& is);
};

/// Convergence state observed at the end of one restart cycle (after the
/// projected eigensolve, before the basis compaction).
struct LanczosRestartSample {
  index_t restart = 0;          ///< 0 = the initial m-step factorization
  index_t converged = 0;        ///< wanted pairs meeting the tolerance
  real worst_wanted_residual = 0;  ///< max residual over the nev wanted pairs
};

struct LanczosStats {
  index_t matvec_count = 0;
  index_t restart_count = 0;
  index_t converged_count = 0;
  /// Wall time spent inside step() — the CPU-side "TakeStep" cost.
  double rci_seconds = 0;
  /// Wall time of the dense eigensolves + basis compactions only.
  double restart_seconds = 0;
  /// Wall time of reorthogonalization.
  double ortho_seconds = 0;
  /// One entry per restart cycle, in order — the solver's convergence
  /// trajectory (also emitted as "lanczos.*" trace counters).
  std::vector<LanczosRestartSample> restart_history;
};

/// Reverse-communication symmetric Lanczos eigensolver.
class SymLanczos {
 public:
  enum class Action {
    kMultiply,   ///< compute multiply_output() = A * multiply_input(), call step() again
    kConverged,  ///< nev pairs converged; results available
    kFailed,     ///< restart budget exhausted; best partial results available
  };

  explicit SymLanczos(LanczosConfig config);

  /// Advance the state machine.  The first call begins the iteration.
  Action step();

  /// True while the solver waits for multiply_output() = A *
  /// multiply_input() before its next step(): after a step() that returned
  /// kMultiply, after restore() and after restore_warm().  Asking does not
  /// advance the iteration.
  [[nodiscard]] bool awaits_product() const noexcept {
    return phase_ == Phase::kAwaitMatvec || phase_ == Phase::kWarmRefresh;
  }

  /// Vector x the solver wants multiplied (valid after step() == kMultiply).
  [[nodiscard]] std::span<const real> multiply_input() const;

  /// Destination for y = A x (write all n entries before the next step()).
  [[nodiscard]] std::span<real> multiply_output();

  /// Converged eigenvalues, best-first per `which` (valid after
  /// kConverged/kFailed); size min(nev, converged_count) — on kFailed the
  /// best unconverged estimates are included up to nev.
  [[nodiscard]] const std::vector<real>& eigenvalues() const;

  /// Residual norm estimates matching eigenvalues().
  [[nodiscard]] const std::vector<real>& residuals() const;

  /// Extract the Ritz vectors matching eigenvalues() into a row-major
  /// (count x n) matrix (ARPACK's dseupd / the paper's FindEigenvectors).
  [[nodiscard]] std::vector<real> extract_eigenvectors() const;

  [[nodiscard]] const LanczosStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const LanczosConfig& config() const noexcept { return config_; }

  /// True once a checkpoint was captured (config_.capture_checkpoints).
  [[nodiscard]] bool has_checkpoint() const noexcept {
    return checkpoint_.valid();
  }
  [[nodiscard]] const LanczosCheckpoint& last_checkpoint() const noexcept {
    return checkpoint_;
  }

  /// Rewind to `cp` (captured here or deserialized): the next step()
  /// resumes the interrupted solve as kAwaitMatvec.  Throws on a
  /// configuration mismatch.  Call set_max_restarts to extend the budget
  /// when resuming a kFailed solve.
  void restore(const LanczosCheckpoint& cp);

  /// Warm-start this solve from a restart-boundary checkpoint of a *nearby*
  /// matrix A (the service's delta-edge re-solve path).  The kept Ritz basis
  /// V_l and continuation vector v_l are reused verbatim, but the projected
  /// matrix T is stale — it encodes V^T A V, not V^T A' V — so the solver
  /// first runs a refresh pass: one matvec per kept vector (l = cp.nkept
  /// products, handed out through the normal kMultiply protocol) rebuilds
  /// the kept block as the symmetrized projection M = V^T A' V plus the
  /// arrowhead couplings v_l^T A' v_i, after which the ordinary thick-restart
  /// iteration continues from j = l.  For a small perturbation ||A' - A||
  /// the refreshed factorization is exact on the kept block, so convergence
  /// typically needs a fraction of the cold-start waves.  Requires
  /// cp.j == cp.nkept (a restart boundary) and a matching configuration;
  /// solver stats restart from zero so stats() reports the warm cost alone.
  void restore_warm(const LanczosCheckpoint& cp);

  /// Current Lanczos step j — the number of basis vectors built so far.
  /// Sharded drivers use it to price each CGS2 pass (O(n * j) work).
  [[nodiscard]] index_t basis_size() const noexcept { return j_; }

  /// SDC sentinel (DESIGN.md §14): worst orthogonality defect of the settled
  /// basis rows, max(|<v_j, v_{j-1}>|, |<v_j, v_0>|, | ||v_j|| - 1 |), which
  /// CGS2 keeps near machine epsilon.  Returns 0 unless the solver is
  /// mid-iteration (kAwaitMatvec) with at least three settled rows — the
  /// rows at and below j_ are the orthonormal basis multiply_input() reads.
  [[nodiscard]] real orthogonality_drift() const;

  /// True when abandon() can produce partial Ritz pairs: the iteration is
  /// mid-flight (kAwaitMatvec) with at least nev basis vectors built.
  [[nodiscard]] bool can_abandon() const noexcept {
    return phase_ == Phase::kAwaitMatvec && j_ >= config_.nev;
  }

  /// Anytime cut: stop the iteration *now* and expose the best Ritz pairs of
  /// the current j-step factorization through the normal kFailed accessors
  /// (eigenvalues / residuals / extract_eigenvectors).  Used by the deadline
  /// subsystem when a run budget expires mid-solve.  Requires can_abandon().
  Action abandon();

  void set_max_restarts(index_t max_restarts) noexcept {
    config_.max_restarts = max_restarts;
  }

 private:
  enum class Phase { kStart, kAwaitMatvec, kWarmRefresh, kConverged, kFailed };

  real* v_row(index_t j) noexcept { return v_.data() + j * config_.n; }
  const real* v_row(index_t j) const noexcept {
    return v_.data() + j * config_.n;
  }
  real& t_at(index_t i, index_t j) noexcept { return t_[i * config_.ncv + j]; }

  void start_iteration();
  Action process_matvec();
  Action process_warm_refresh();
  Action restart_or_finish();
  /// Shared checkpoint-restore body (validation + state copy); the public
  /// restore()/restore_warm() entry points layer phase + accounting on top.
  void restore_common(const LanczosCheckpoint& cp);
  void reorthogonalize(real* w, index_t upto, real* alpha_correction);
  void random_unit_orthogonal(real* w, index_t upto);
  /// Order Ritz indices best-first per config_.which.
  [[nodiscard]] std::vector<index_t> ritz_order(
      const std::vector<real>& theta) const;
  void finalize(const std::vector<real>& theta, const std::vector<real>& y,
                const std::vector<index_t>& order, Phase end_phase);
  void capture_checkpoint();

  LanczosConfig config_;
  Phase phase_ = Phase::kStart;
  Rng rng_;
  std::vector<real> v_;   // (ncv+1) x n row-major basis, rows are vectors
  std::vector<real> t_;   // ncv x ncv projected matrix (symmetric)
  std::vector<real> w_;   // matvec result / working vector, length n
  std::vector<real> c_;   // CGS2 coefficient scratch, length ncv + 1
  std::vector<real> warm_m_;  // (nkept+1) x nkept projection during refresh
  index_t j_ = 0;         // current Lanczos step
  index_t nkept_ = 0;     // thick-restart kept count (arrowhead column)
  real beta_last_ = 0;    // coupling of v_m to the basis
  LanczosStats stats_;
  std::vector<real> out_eigenvalues_;
  std::vector<real> out_residuals_;
  std::vector<real> final_y_;          // ncv x ncv eigvecs of final T
  std::vector<index_t> final_order_;   // selected columns, best-first
  LanczosCheckpoint checkpoint_;       // latest restart-boundary snapshot
};

}  // namespace fastsc::lanczos
