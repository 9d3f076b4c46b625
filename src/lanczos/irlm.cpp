#include "lanczos/irlm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "blas/hblas.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/timer.h"
#include "device/device.h"
#include "fault/fault.h"
#include "lanczos/dense_eig.h"
#include "obs/metrics.h"
#include "obs/sdc.h"
#include "obs/trace.h"

namespace fastsc::lanczos {

namespace {
constexpr real kEps = std::numeric_limits<real>::epsilon();

// "02" added the trailing payload CRC32C frame (DESIGN.md §14); "01" blobs
// predate the integrity work and are rejected rather than trusted unchecked.
constexpr char kCheckpointMagic[8] = {'F', 'S', 'C', 'K', 'P', 'T', '0', '2'};

template <class T>
void write_raw(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
void read_raw(std::istream& is, T& value) {
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
}

void write_vec(std::ostream& os, const std::vector<real>& v) {
  const std::uint64_t size = v.size();
  write_raw(os, size);
  if (size != 0) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(size * sizeof(real)));
  }
}

std::vector<real> read_vec(std::istream& is) {
  std::uint64_t size = 0;
  read_raw(is, size);
  FASTSC_CHECK(is.good() && size < (std::uint64_t{1} << 40),
               "checkpoint stream corrupt: bad vector size");
  std::vector<real> v(size);
  if (size != 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(size * sizeof(real)));
  }
  return v;
}

}  // namespace

std::uint32_t LanczosCheckpoint::payload_crc() const {
  std::uint32_t crc = 0;
  const auto mix = [&crc](const void* p, usize bytes) {
    crc = crc32c(p, bytes, crc);
  };
  mix(&n, sizeof(n));
  mix(&nev, sizeof(nev));
  mix(&ncv, sizeof(ncv));
  mix(&which, sizeof(which));
  mix(&j, sizeof(j));
  mix(&nkept, sizeof(nkept));
  mix(&beta_last, sizeof(beta_last));
  if (!v.empty()) mix(v.data(), v.size() * sizeof(real));
  if (!t.empty()) mix(t.data(), t.size() * sizeof(real));
  mix(&restart_count, sizeof(restart_count));
  mix(&matvec_count, sizeof(matvec_count));
  mix(&rng, sizeof(rng));
  return crc;
}

void LanczosCheckpoint::save(std::ostream& os) const {
  os.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  write_raw(os, n);
  write_raw(os, nev);
  write_raw(os, ncv);
  write_raw(os, which);
  write_raw(os, j);
  write_raw(os, nkept);
  write_raw(os, beta_last);
  write_vec(os, v);
  write_vec(os, t);
  write_raw(os, restart_count);
  write_raw(os, matvec_count);
  write_raw(os, rng);
  write_raw(os, payload_crc());
  FASTSC_CHECK(os.good(), "checkpoint save failed: bad output stream");
}

LanczosCheckpoint LanczosCheckpoint::load(std::istream& is) {
  char magic[sizeof(kCheckpointMagic)] = {};
  is.read(magic, sizeof(magic));
  FASTSC_CHECK(
      is.good() && std::memcmp(magic, kCheckpointMagic, sizeof(magic)) == 0,
      "checkpoint load failed: bad magic");
  LanczosCheckpoint cp;
  read_raw(is, cp.n);
  read_raw(is, cp.nev);
  read_raw(is, cp.ncv);
  read_raw(is, cp.which);
  read_raw(is, cp.j);
  read_raw(is, cp.nkept);
  read_raw(is, cp.beta_last);
  cp.v = read_vec(is);
  cp.t = read_vec(is);
  read_raw(is, cp.restart_count);
  read_raw(is, cp.matvec_count);
  read_raw(is, cp.rng);
  std::uint32_t stored_crc = 0;
  read_raw(is, stored_crc);
  FASTSC_CHECK(is.good(), "checkpoint load failed: truncated stream");
  // At-rest corruption injection point: the deserialized basis is the live
  // payload a flipped storage bit would land in.
  if (!cp.v.empty()) {
    fault::corrupt_bytes("bitflip.checkpoint.blob", cp.v.data(),
                         cp.v.size() * sizeof(real));
  }
  if (cp.payload_crc() != stored_crc) {
    obs::sdc_note_detected("checkpoint.blob",
                           "checkpoint payload failed its CRC32C frame");
    throw device::DataIntegrityError(
        "checkpoint blob failed its CRC32C frame (restart " +
        std::to_string(cp.restart_count) + ")");
  }
  return cp;
}

index_t resolve_ncv(index_t n, index_t nev, index_t ncv) {
  if (ncv == 0) ncv = std::max<index_t>(2 * nev + 1, 20);
  return std::max(std::min(ncv, n), std::min(n, nev + 2));
}

SymLanczos::SymLanczos(LanczosConfig config) : config_(config), rng_(config.seed) {
  FASTSC_CHECK(config_.n >= 1, "problem size must be positive");
  FASTSC_CHECK(config_.nev >= 1 && config_.nev <= config_.n,
               "nev must be in [1, n]");
  config_.ncv = resolve_ncv(config_.n, config_.nev, config_.ncv);
  FASTSC_CHECK(config_.ncv > config_.nev || config_.ncv == config_.n,
               "ncv must exceed nev (or equal n)");
  if (config_.tol <= 0) config_.tol = 1e-10;
  v_.assign(static_cast<usize>(config_.ncv + 1) * static_cast<usize>(config_.n),
            0.0);
  t_.assign(static_cast<usize>(config_.ncv) * static_cast<usize>(config_.ncv),
            0.0);
  w_.assign(static_cast<usize>(config_.n), 0.0);
  c_.assign(static_cast<usize>(config_.ncv) + 1, 0.0);
}

std::span<const real> SymLanczos::multiply_input() const {
  return {v_row(j_), static_cast<usize>(config_.n)};
}

std::span<real> SymLanczos::multiply_output() {
  return {w_.data(), w_.size()};
}

const std::vector<real>& SymLanczos::eigenvalues() const {
  return out_eigenvalues_;
}

const std::vector<real>& SymLanczos::residuals() const {
  return out_residuals_;
}

real SymLanczos::orthogonality_drift() const {
  if (phase_ != Phase::kAwaitMatvec || j_ < 2) return 0;
  const index_t n = config_.n;
  const auto dot = [n](const real* a, const real* b) {
    real s = 0;
    for (index_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
  };
  // v_row(j_) is the unit continuation vector multiply_input() hands out;
  // rows 0..j_ are the settled orthonormal basis.  Checking against the
  // newest neighbour and the oldest row bounds both local recurrence damage
  // and a global loss of orthogonality at O(n) cost per wave.
  const real* vj = v_row(j_);
  const real d_first = std::abs(dot(vj, v_row(0)));
  const real d_prev = std::abs(dot(vj, v_row(j_ - 1)));
  const real unit = std::abs(std::sqrt(dot(vj, vj)) - real{1});
  return std::max(std::max(d_first, d_prev), unit);
}

void SymLanczos::start_iteration() {
  const index_t n = config_.n;
  real* v0 = v_row(0);
  if (!config_.initial_vector.empty()) {
    FASTSC_CHECK(static_cast<index_t>(config_.initial_vector.size()) == n,
                 "initial_vector must have length n");
    hblas::copy(n, config_.initial_vector.data(), v0);
  } else {
    for (index_t i = 0; i < n; ++i) v0[i] = rng_.uniform() - 0.5;
  }
  real norm = hblas::nrm2(n, v0);
  if (norm == 0) {
    // A zero warm start degenerates to the random path.
    for (index_t i = 0; i < n; ++i) v0[i] = rng_.uniform() - 0.5;
    norm = hblas::nrm2(n, v0);
  }
  FASTSC_ASSERT(norm > 0);
  hblas::scal(n, 1.0 / norm, v0);
  j_ = 0;
  nkept_ = 0;
  if (config_.capture_checkpoints) capture_checkpoint();
}

void SymLanczos::capture_checkpoint() {
  checkpoint_.n = config_.n;
  checkpoint_.nev = config_.nev;
  checkpoint_.ncv = config_.ncv;
  checkpoint_.which = static_cast<int>(config_.which);
  checkpoint_.j = j_;
  checkpoint_.nkept = nkept_;
  checkpoint_.beta_last = beta_last_;
  checkpoint_.v = v_;
  checkpoint_.t = t_;
  checkpoint_.restart_count = stats_.restart_count;
  checkpoint_.matvec_count = stats_.matvec_count;
  checkpoint_.rng = rng_.state();
  obs::metrics().counter("lanczos.checkpoints").add();
}

void SymLanczos::restore_common(const LanczosCheckpoint& cp) {
  FASTSC_CHECK(cp.valid(), "cannot restore from an empty checkpoint");
  FASTSC_CHECK(cp.n == config_.n && cp.nev == config_.nev &&
                   cp.ncv == config_.ncv &&
                   cp.which == static_cast<int>(config_.which),
               "checkpoint does not match this solver's configuration");
  FASTSC_CHECK(cp.v.size() == v_.size() && cp.t.size() == t_.size(),
               "checkpoint basis dimensions do not match");
  v_ = cp.v;
  t_ = cp.t;
  j_ = cp.j;
  nkept_ = cp.nkept;
  beta_last_ = cp.beta_last;
  rng_.set_state(cp.rng);
  stats_.restart_count = cp.restart_count;
  stats_.matvec_count = cp.matvec_count;
  // Drop convergence samples from the abandoned continuation; the resumed
  // solve re-records them from the checkpointed restart onward.
  std::erase_if(stats_.restart_history, [&](const LanczosRestartSample& s) {
    return s.restart >= cp.restart_count;
  });
  out_eigenvalues_.clear();
  out_residuals_.clear();
  final_y_.clear();
  final_order_.clear();
  std::fill(w_.begin(), w_.end(), 0.0);
  checkpoint_ = cp;
}

void SymLanczos::restore(const LanczosCheckpoint& cp) {
  restore_common(cp);
  phase_ = Phase::kAwaitMatvec;
  obs::metrics().counter("lanczos.resumes").add();
}

void SymLanczos::restore_warm(const LanczosCheckpoint& cp) {
  FASTSC_CHECK(cp.j == cp.nkept && cp.nkept >= 1,
               "warm start requires a restart-boundary checkpoint "
               "(j == nkept, nkept >= 1)");
  restore_common(cp);
  // Fresh accounting: stats() reports the warm re-solve's own cost, so the
  // service can compare warm vs cold wave counts directly.
  stats_.restart_count = 0;
  stats_.matvec_count = 0;
  stats_.restart_history.clear();
  // Refresh pass: recompute M[p][i] = v_p . (A' v_i) for the l kept Ritz
  // vectors, reusing j_ as the refresh column index so multiply_input()
  // hands out v_row(j_) unchanged.
  warm_m_.assign(
      static_cast<usize>(nkept_ + 1) * static_cast<usize>(nkept_), 0.0);
  j_ = 0;
  phase_ = Phase::kWarmRefresh;
  obs::metrics().counter("lanczos.warm_starts").add();
}

SymLanczos::Action SymLanczos::step() {
  WallTimer timer;
  Action action;
  switch (phase_) {
    case Phase::kStart:
      start_iteration();
      phase_ = Phase::kAwaitMatvec;
      action = Action::kMultiply;
      break;
    case Phase::kAwaitMatvec:
      action = process_matvec();
      break;
    case Phase::kWarmRefresh:
      action = process_warm_refresh();
      break;
    case Phase::kConverged:
      action = Action::kConverged;
      break;
    case Phase::kFailed:
      action = Action::kFailed;
      break;
    default:
      action = Action::kFailed;
      break;
  }
  stats_.rci_seconds += timer.seconds();
  return action;
}

void SymLanczos::reorthogonalize(real* w, index_t upto, real* alpha_correction) {
  // Blocked CGS2 ("twice is enough", Giraud et al. 2005): each pass
  // projects w against basis rows 0..upto with two level-2 calls, c = V w
  // and then w -= V^T c.
  WallTimer timer;
  const index_t n = config_.n;
  real* c = c_.data();
  for (int pass = 0; pass < 2; ++pass) {
    hblas::gemv_par(upto + 1, n, 1.0, v_row(0), n, w, 0.0, c);
    hblas::gemv_t_par(upto + 1, n, -1.0, v_row(0), n, c, 1.0, w);
    if (alpha_correction != nullptr) *alpha_correction += c[upto];
  }
  stats_.ortho_seconds += timer.seconds();
}

void SymLanczos::random_unit_orthogonal(real* w, index_t upto) {
  const index_t n = config_.n;
  for (int attempt = 0; attempt < 5; ++attempt) {
    for (index_t i = 0; i < n; ++i) w[i] = rng_.uniform() - 0.5;
    reorthogonalize(w, upto, nullptr);
    const real norm = hblas::nrm2(n, w);
    if (norm > kEps * std::sqrt(static_cast<real>(n))) {
      hblas::scal(n, 1.0 / norm, w);
      return;
    }
  }
  // The basis spans the whole space (upto + 1 == n); a zero continuation
  // vector is harmless because every Ritz residual is already ~0.
  std::fill(w, w + n, 0.0);
}

SymLanczos::Action SymLanczos::process_matvec() {
  const index_t n = config_.n;
  const index_t m = config_.ncv;
  ++stats_.matvec_count;

  // w_ currently holds A * v_j.
  real* w = w_.data();
  real alpha = hblas::dot(n, v_row(j_), w);
  hblas::axpy(n, -alpha, v_row(j_), w);
  if (nkept_ > 0 && j_ == nkept_) {
    // Thick-restart arrowhead: subtract the couplings to the kept Ritz
    // vectors, s_i = T(i, j_).
    for (index_t i = 0; i < nkept_; ++i) {
      const real s = t_at(i, j_);
      if (s != 0.0) hblas::axpy(n, -s, v_row(i), w);
    }
  } else if (j_ > 0) {
    const real beta_prev = t_at(j_ - 1, j_);
    if (beta_prev != 0.0) hblas::axpy(n, -beta_prev, v_row(j_ - 1), w);
  }
  reorthogonalize(w, j_, &alpha);
  t_at(j_, j_) = alpha;

  real beta = hblas::nrm2(n, w);
  const real breakdown_tol =
      kEps * std::max<real>(1.0, std::fabs(alpha)) * 100.0;
  if (beta > breakdown_tol) {
    hblas::scal(n, 1.0 / beta, w);
    hblas::copy(n, w, v_row(j_ + 1));
  } else {
    // Invariant subspace found: continue with a random orthogonal direction
    // and a zero coupling (ARPACK does the same).
    beta = 0.0;
    random_unit_orthogonal(v_row(j_ + 1), j_);
  }
  if (j_ + 1 < m) {
    t_at(j_, j_ + 1) = beta;
    t_at(j_ + 1, j_) = beta;
  } else {
    beta_last_ = beta;
  }

  ++j_;
  if (j_ < m) {
    return Action::kMultiply;  // input is v_row(j_), output w_
  }
  return restart_or_finish();
}

SymLanczos::Action SymLanczos::process_warm_refresh() {
  const index_t n = config_.n;
  const index_t l = nkept_;
  ++stats_.matvec_count;

  // w_ holds A' * v_{j_} for refresh column j_ (a kept Ritz vector).
  // Project it against the l + 1 retained basis vectors (kept Ritz vectors
  // plus the continuation vector at row l).
  for (index_t p = 0; p <= l; ++p) {
    warm_m_[static_cast<usize>(p * l + j_)] = hblas::dot(n, v_row(p), w_.data());
  }
  ++j_;
  if (j_ < l) {
    return Action::kMultiply;  // next refresh product: A' * v_{j_}
  }

  // All kept columns refreshed.  Rebuild T for A': the kept block is the
  // symmetrized projection (M is symmetric up to the perturbation's
  // floating-point noise because V is orthonormal and A' symmetric), the
  // arrowhead column l carries the exact couplings v_l^T A' v_i that
  // process_matvec subtracts at the j == nkept step, and everything beyond
  // is rebuilt by the continuing iteration.
  std::fill(t_.begin(), t_.end(), 0.0);
  for (index_t i = 0; i < l; ++i) {
    for (index_t p = 0; p < l; ++p) {
      t_at(i, p) = 0.5 * (warm_m_[static_cast<usize>(i * l + p)] +
                          warm_m_[static_cast<usize>(p * l + i)]);
    }
    const real s = warm_m_[static_cast<usize>(l * l + i)];
    t_at(i, l) = s;
    t_at(l, i) = s;
  }
  warm_m_.clear();
  warm_m_.shrink_to_fit();
  j_ = l;
  phase_ = Phase::kAwaitMatvec;
  return Action::kMultiply;  // next product: A' * v_l, the normal iteration
}

std::vector<index_t> SymLanczos::ritz_order(
    const std::vector<real>& theta) const {
  std::vector<index_t> order(theta.size());
  std::iota(order.begin(), order.end(), index_t{0});
  auto cmp = [&](index_t a, index_t b) {
    const real ta = theta[static_cast<usize>(a)];
    const real tb = theta[static_cast<usize>(b)];
    switch (config_.which) {
      case EigWhich::kLargestAlgebraic: return ta > tb;
      case EigWhich::kSmallestAlgebraic: return ta < tb;
      case EigWhich::kLargestMagnitude: return std::fabs(ta) > std::fabs(tb);
      case EigWhich::kSmallestMagnitude: return std::fabs(ta) < std::fabs(tb);
    }
    return ta > tb;
  };
  std::stable_sort(order.begin(), order.end(), cmp);
  return order;
}

void SymLanczos::finalize(const std::vector<real>& theta,
                          const std::vector<real>& y,
                          const std::vector<index_t>& order, Phase end_phase) {
  const index_t m = config_.ncv;
  out_eigenvalues_.clear();
  out_residuals_.clear();
  final_order_.clear();
  for (index_t i = 0; i < config_.nev; ++i) {
    const index_t col = order[static_cast<usize>(i)];
    out_eigenvalues_.push_back(theta[static_cast<usize>(col)]);
    out_residuals_.push_back(
        std::fabs(beta_last_ * y[static_cast<usize>((m - 1) * m + col)]));
    final_order_.push_back(col);
  }
  final_y_ = y;
  phase_ = end_phase;
}

SymLanczos::Action SymLanczos::restart_or_finish() {
  const index_t n = config_.n;
  const index_t m = config_.ncv;
  WallTimer restart_timer;

  // Dense symmetric eigensolve of the projected matrix T (m x m).
  std::vector<real> tcopy(t_);
  DenseEigResult eig = dense_sym_eig(tcopy.data(), m, /*sym_tol=*/1e-8);
  std::vector<real>& theta = eig.eigenvalues;
  std::vector<real>& y = eig.eigenvectors;  // m x m, eigvecs in columns

  const std::vector<index_t> order = ritz_order(theta);

  real norm_estimate = 0;
  for (real t : theta) norm_estimate = std::max(norm_estimate, std::fabs(t));
  norm_estimate = std::max(norm_estimate, kEps);

  index_t converged = 0;
  real worst_res = 0;
  for (index_t i = 0; i < config_.nev; ++i) {
    const index_t col = order[static_cast<usize>(i)];
    const real res =
        std::fabs(beta_last_ * y[static_cast<usize>((m - 1) * m + col)]);
    if (res <= config_.tol * norm_estimate) ++converged;
    worst_res = std::max(worst_res, res);
  }
  // Simulated solver stall: pretend nothing converged this cycle, driving
  // the iteration toward the restart budget (and the kFailed path).
  if (fault::triggered("lanczos.convergence")) converged = 0;
  stats_.converged_count = converged;
  stats_.restart_history.push_back(
      LanczosRestartSample{stats_.restart_count, converged, worst_res});
  if (obs::trace_enabled()) {
    const double now = obs::wall_now_us();
    obs::trace().counter("lanczos.worst_residual", worst_res, now);
    obs::trace().counter("lanczos.converged", static_cast<double>(converged),
                         now);
  }

  if (converged >= config_.nev) {
    finalize(theta, y, order, Phase::kConverged);
    stats_.restart_seconds += restart_timer.seconds();
    return Action::kConverged;
  }
  if (stats_.restart_count >= config_.max_restarts || m >= n) {
    // m == n means the factorization is exact; anything unconverged now is a
    // numerical artifact, report as converged-with-residuals via kFailed
    // only if truly over budget.
    finalize(theta, y, order, m >= n ? Phase::kConverged : Phase::kFailed);
    stats_.restart_seconds += restart_timer.seconds();
    return m >= n ? Action::kConverged : Action::kFailed;
  }

  // ---- Thick restart -------------------------------------------------------
  ++stats_.restart_count;
  index_t l = config_.nev + std::min(config_.nev, (m - config_.nev) / 2);
  l = std::min(l, m - 2);
  l = std::max(l, std::min(config_.nev, m - 2));

  // Basis compaction: rows 0..l-1 of the new V are (Y_sel)^T V_old.
  // Build G (l x m) with G[i, p] = Y[p, order[i]].
  std::vector<real> g(static_cast<usize>(l) * static_cast<usize>(m));
  for (index_t i = 0; i < l; ++i) {
    const index_t col = order[static_cast<usize>(i)];
    for (index_t p = 0; p < m; ++p) {
      g[static_cast<usize>(i * m + p)] = y[static_cast<usize>(p * m + col)];
    }
  }
  std::vector<real> vnew(static_cast<usize>(l) * static_cast<usize>(n));
  if (config_.dense_tier == DenseTier::kBlocked) {
    hblas::gemm_par(l, n, m, 1.0, g.data(), m, v_.data(), n, 0.0,
                    vnew.data(), n);
  } else {
    hblas::gemm_naive(l, n, m, 1.0, g.data(), m, v_.data(), n, 0.0,
                      vnew.data(), n);
  }
  std::copy(vnew.begin(), vnew.end(), v_.begin());
  // The residual vector v_m becomes the continuation vector at row l.
  hblas::copy(n, v_row(m), v_row(l));

  // Rebuild T: diag of kept Ritz values plus the arrowhead couplings.
  std::fill(t_.begin(), t_.end(), 0.0);
  for (index_t i = 0; i < l; ++i) {
    const index_t col = order[static_cast<usize>(i)];
    t_at(i, i) = theta[static_cast<usize>(col)];
    const real s =
        beta_last_ * y[static_cast<usize>((m - 1) * m + col)];
    t_at(i, l) = s;
    t_at(l, i) = s;
  }
  nkept_ = l;
  j_ = l;
  if (config_.capture_checkpoints) capture_checkpoint();
  stats_.restart_seconds += restart_timer.seconds();
  return Action::kMultiply;  // next product: A * v_l
}

SymLanczos::Action SymLanczos::abandon() {
  FASTSC_CHECK(can_abandon(),
               "abandon requires an in-flight iteration with at least nev "
               "basis vectors");
  const index_t m = config_.ncv;
  const index_t jb = j_;  // valid basis rows 0..jb-1; jb < m in kAwaitMatvec
  WallTimer restart_timer;

  // Ritz pairs of the current jb-step factorization: dense eigensolve of the
  // leading jb x jb block of T.  This covers both shapes the block can have
  // mid-flight — tridiagonal during expansion, diagonal-plus-arrowhead right
  // after a thick restart — because the block is simply what the iteration
  // has projected so far.
  std::vector<real> tb(static_cast<usize>(jb) * static_cast<usize>(jb));
  for (index_t i = 0; i < jb; ++i) {
    for (index_t p = 0; p < jb; ++p) {
      tb[static_cast<usize>(i * jb + p)] = t_[static_cast<usize>(i * m + p)];
    }
  }
  DenseEigResult eig = dense_sym_eig(tb.data(), jb, /*sym_tol=*/1e-8);
  const std::vector<real>& theta = eig.eigenvalues;
  const std::vector<real>& y = eig.eigenvectors;  // jb x jb, eigvecs in cols
  const std::vector<index_t> order = ritz_order(theta);

  // Residual of Ritz pair (theta, V y) from A V = V T_jb + v_jb b^T with
  // coupling b[p] = T(p, jb): ||r|| = |b^T y|.  Column jb of T exists
  // (jb < m) and holds the tridiagonal beta or the restart arrowhead.
  out_eigenvalues_.clear();
  out_residuals_.clear();
  final_order_.clear();
  final_y_.assign(static_cast<usize>(m) * static_cast<usize>(m), 0.0);
  for (index_t p = 0; p < jb; ++p) {
    for (index_t col = 0; col < jb; ++col) {
      // Zero-padded m x m embedding so extract_eigenvectors() reads the
      // same (p * m + col) layout as a finished solve.
      final_y_[static_cast<usize>(p * m + col)] =
          y[static_cast<usize>(p * jb + col)];
    }
  }
  for (index_t i = 0; i < config_.nev; ++i) {
    const index_t col = order[static_cast<usize>(i)];
    out_eigenvalues_.push_back(theta[static_cast<usize>(col)]);
    real r = 0;
    for (index_t p = 0; p < jb; ++p) {
      r += t_[static_cast<usize>(p * m + jb)] * y[static_cast<usize>(p * jb + col)];
    }
    out_residuals_.push_back(std::fabs(r));
    final_order_.push_back(col);
  }
  phase_ = Phase::kFailed;
  stats_.restart_seconds += restart_timer.seconds();
  obs::metrics().counter("lanczos.abandons").add();
  return Action::kFailed;
}

std::vector<real> SymLanczos::extract_eigenvectors() const {
  FASTSC_CHECK(phase_ == Phase::kConverged || phase_ == Phase::kFailed,
               "extract_eigenvectors requires a finished iteration");
  const index_t n = config_.n;
  const index_t m = config_.ncv;
  const index_t count = static_cast<index_t>(final_order_.size());
  std::vector<real> g(static_cast<usize>(count) * static_cast<usize>(m));
  for (index_t i = 0; i < count; ++i) {
    const index_t col = final_order_[static_cast<usize>(i)];
    for (index_t p = 0; p < m; ++p) {
      g[static_cast<usize>(i * m + p)] =
          final_y_[static_cast<usize>(p * m + col)];
    }
  }
  std::vector<real> x(static_cast<usize>(count) * static_cast<usize>(n));
  if (config_.dense_tier == DenseTier::kBlocked) {
    hblas::gemm_par(count, n, m, 1.0, g.data(), m, v_.data(), n, 0.0,
                    x.data(), n);
  } else {
    hblas::gemm_naive(count, n, m, 1.0, g.data(), m, v_.data(), n, 0.0,
                      x.data(), n);
  }
  // Normalize each Ritz vector (defensive: Y columns are orthonormal so the
  // products are unit up to roundoff already).
  for (index_t i = 0; i < count; ++i) {
    real* row = x.data() + i * n;
    const real norm = hblas::nrm2(n, row);
    if (norm > 0) hblas::scal(n, 1.0 / norm, row);
  }
  return x;
}

}  // namespace fastsc::lanczos
