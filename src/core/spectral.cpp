#include "core/spectral.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>

#include "baseline/matlab_like.h"
#include "baseline/python_like.h"
#include "common/cancel.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/log.h"
#include "common/validation.h"
#include "common/timer.h"
#include "core/pipeline_internal.h"
#include "core/sharded.h"
#include "device/device_group.h"
#include "device/stream.h"
#include "fault/fault.h"
#include "graph/build.h"
#include "graph/components.h"
#include "graph/laplacian.h"
#include "kmeans/lloyd.h"
#include "lanczos/dense_eig.h"
#include "lanczos/rci.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/sdc.h"
#include "obs/trace.h"
#include "sparse/spmv.h"

namespace fastsc::core {

std::string backend_name(Backend b) {
  switch (b) {
    case Backend::kDevice: return "CUDA";         // paper's column name
    case Backend::kMatlabLike: return "Matlab";
    case Backend::kPythonLike: return "Python";
  }
  return "?";
}

namespace {

/// Build the (n x k) spectral embedding from the eigenvectors of the
/// symmetric operator S = D^-1/2 W D^-1/2 (row-major k x n input).
///
/// The paper's Step 3 asks for eigenvectors of D^-1 W; those are
/// v_rw = D^-1/2 u_sym, so each vertex row is scaled by 1/sqrt(d_j) and the
/// resulting eigenvectors are renormalized to unit length before k-means
/// (paper Step 4 clusters the rows of this matrix).
std::vector<real> to_embedding(const std::vector<real>& vectors,
                               const std::vector<real>& inv_sqrt_degree,
                               index_t k, index_t n) {
  std::vector<real> emb(static_cast<usize>(n) * static_cast<usize>(k));
  for (index_t i = 0; i < k; ++i) {
    real norm2 = 0;
    for (index_t j = 0; j < n; ++j) {
      const real v = vectors[static_cast<usize>(i * n + j)] *
                     inv_sqrt_degree[static_cast<usize>(j)];
      emb[static_cast<usize>(j * k + i)] = v;
      norm2 += v * v;
    }
    if (norm2 > 0) {
      const real inv = 1.0 / std::sqrt(norm2);
      for (index_t j = 0; j < n; ++j) {
        emb[static_cast<usize>(j * k + i)] *= inv;
      }
    }
  }
  return emb;
}

/// Lanczos configuration derived from the pipeline configuration.
lanczos::LanczosConfig eig_config(const SpectralConfig& cfg, index_t n) {
  lanczos::LanczosConfig ec;
  ec.n = n;
  ec.nev = cfg.num_clusters;
  ec.ncv = cfg.ncv;
  ec.tol = cfg.eig_tol;
  ec.max_restarts = cfg.max_restarts;
  ec.which = cfg.which;
  ec.seed = cfg.seed;
  ec.dense_tier = cfg.backend == Backend::kPythonLike
                      ? lanczos::DenseTier::kNaive
                      : lanczos::DenseTier::kBlocked;
  return ec;
}

/// fp64 Rayleigh-Ritz refinement of a narrow-precision solve (DESIGN.md
/// §13): orthonormalize the Ritz vectors (CGS2 in fp64), project the exact
/// operator S = D^-1/2 W D^-1/2 onto their span (W applied host-side in COO
/// entry order, so single-device and sharded runs refine bit-for-bit
/// identically), rediagonalize the small projection, and rotate.  `vectors`
/// holds the eigenvectors row-major (one per eigenvalue, each of length
/// inv_sqrt_degree.size()); both it and `eigenvalues` are updated in place,
/// refined pairs reordered to match the incoming eigenvalue ordering.
/// Returns the post-refinement residual max_i ||S v_i - lambda_i v_i||_2.
real refine_eigenpairs_fp64(const sparse::Coo& w,
                            const std::vector<real>& inv_sqrt_degree,
                            index_t rounds, std::vector<real>& eigenvalues,
                            std::vector<real>& vectors) {
  const auto n = static_cast<index_t>(inv_sqrt_degree.size());
  if (n <= 0 || vectors.empty() || rounds <= 0) return 0;
  const auto un = static_cast<usize>(n);
  const auto nv = static_cast<index_t>(vectors.size() / un);
  if (nv <= 0) return 0;
  if (eigenvalues.size() < static_cast<usize>(nv)) {
    eigenvalues.resize(static_cast<usize>(nv), 0);
  }
  const real* isd = inv_sqrt_degree.data();

  // y = S x with W applied entry-by-entry in COO storage order — the order
  // every caller shares, which keeps refinement bitwise identical across
  // device counts.
  std::vector<real> scratch(un);
  const auto apply = [&](const real* x, real* y) {
    for (usize i = 0; i < un; ++i) scratch[i] = isd[i] * x[i];
    std::fill(y, y + un, real{0});
    const usize nnz = w.values.size();
    for (usize e = 0; e < nnz; ++e) {
      y[static_cast<usize>(w.row_idx[e])] +=
          w.values[e] * scratch[static_cast<usize>(w.col_idx[e])];
    }
    for (usize i = 0; i < un; ++i) y[i] *= isd[i];
  };

  // dense_sym_eig ascends; emit refined pairs in the solver's order.
  const bool ascending =
      nv < 2 || eigenvalues.front() <= eigenvalues[static_cast<usize>(nv) - 1];
  const auto unv = static_cast<usize>(nv);
  std::vector<real> av(unv * un);
  std::vector<real> h(unv * unv);
  std::vector<real> rotated(unv * un);
  real residual = 0;
  for (index_t round = 0; round < rounds; ++round) {
    // CGS2 orthonormalization of the Ritz vectors ("twice is enough").
    for (index_t i = 0; i < nv; ++i) {
      real* vi = vectors.data() + static_cast<usize>(i) * un;
      for (int pass = 0; pass < 2; ++pass) {
        for (index_t j = 0; j < i; ++j) {
          const real* vj = vectors.data() + static_cast<usize>(j) * un;
          real c = 0;
          for (usize l = 0; l < un; ++l) c += vj[l] * vi[l];
          for (usize l = 0; l < un; ++l) vi[l] -= c * vj[l];
        }
      }
      real norm2 = 0;
      for (usize l = 0; l < un; ++l) norm2 += vi[l] * vi[l];
      if (norm2 > 0) {
        const real inv = real{1} / std::sqrt(norm2);
        for (usize l = 0; l < un; ++l) vi[l] *= inv;
      }
    }
    // Project: H = V S V^T (symmetrized against fp64 roundoff).
    for (index_t i = 0; i < nv; ++i) {
      apply(vectors.data() + static_cast<usize>(i) * un,
            av.data() + static_cast<usize>(i) * un);
    }
    for (index_t i = 0; i < nv; ++i) {
      const real* vi = vectors.data() + static_cast<usize>(i) * un;
      for (index_t j = 0; j < nv; ++j) {
        const real* aj = av.data() + static_cast<usize>(j) * un;
        real acc = 0;
        for (usize l = 0; l < un; ++l) acc += vi[l] * aj[l];
        h[static_cast<usize>(i) * unv + static_cast<usize>(j)] = acc;
      }
    }
    for (index_t i = 0; i < nv; ++i) {
      for (index_t j = i + 1; j < nv; ++j) {
        const real s = (h[static_cast<usize>(i) * unv + static_cast<usize>(j)] +
                        h[static_cast<usize>(j) * unv + static_cast<usize>(i)]) /
                       2;
        h[static_cast<usize>(i) * unv + static_cast<usize>(j)] = s;
        h[static_cast<usize>(j) * unv + static_cast<usize>(i)] = s;
      }
    }
    const lanczos::DenseEigResult small = lanczos::dense_sym_eig(h.data(), nv);
    // Rotate V <- U^T V, pairing column `src` of U with refined value `src`.
    for (index_t out = 0; out < nv; ++out) {
      const index_t src = ascending ? out : nv - 1 - out;
      eigenvalues[static_cast<usize>(out)] =
          small.eigenvalues[static_cast<usize>(src)];
      real* dst = rotated.data() + static_cast<usize>(out) * un;
      std::fill(dst, dst + un, real{0});
      for (index_t j = 0; j < nv; ++j) {
        const real coef = small.eigenvectors[static_cast<usize>(j) * unv +
                                             static_cast<usize>(src)];
        const real* vj = vectors.data() + static_cast<usize>(j) * un;
        for (usize l = 0; l < un; ++l) dst[l] += coef * vj[l];
      }
    }
    vectors.swap(rotated);
    residual = 0;
    for (index_t i = 0; i < nv; ++i) {
      const real* vi = vectors.data() + static_cast<usize>(i) * un;
      apply(vi, av.data());
      const real lambda = eigenvalues[static_cast<usize>(i)];
      real r2 = 0;
      for (usize l = 0; l < un; ++l) {
        const real r = av[l] - lambda * vi[l];
        r2 += r * r;
      }
      residual = std::max(residual, std::sqrt(r2));
    }
  }
  return residual;
}

/// Unit roundoff of a precision rung's storage (0 for fp64): the slack the
/// SDC tolerances add per quantized operand (DESIGN.md §14).
double rung_eps(Precision p) noexcept {
  return p == Precision::kFp64 ? 0.0 : p == Precision::kFp32 ? 0x1p-24 : 0x1p-8;
}

/// Whether a solve under `pp` ends with the fp64 Rayleigh-Ritz refinement
/// (some eigensolver stage runs below fp64 or the fused epilogue is on).
bool refines(const PrecisionPolicy& pp) noexcept {
  return pp.refine_rounds > 0 &&
         (pp.fused() || pp.resolve(PrecisionStage::kSpmv) != Precision::kFp64 ||
          pp.resolve(PrecisionStage::kBasis) != Precision::kFp64);
}

}  // namespace

namespace detail {

void note_degradation(SpectralResult& result, const char* stage,
                      const char* action, const std::string& reason) {
  result.degradation.degraded = true;
  result.degradation.events.push_back(DegradationEvent{stage, action, reason});
  obs::bump("degrade.fallback");
  obs::metrics().counter(std::string("degrade.") + action).add();
  FASTSC_LOG_WARN("degradation: stage '" << stage << "' -> " << action << " ("
                                         << reason << ")");
}

void reset_eig_result(SpectralResult& result) {
  result.eigenvalues.clear();
  result.embedding.clear();
  result.eig_converged = false;
  result.eig_stats = {};
  result.spmv_seconds = 0;
  result.checkpoint.reset();
  result.warm_started = false;
  result.precision_used = {};
  result.refine_residual = 0;
}

void run_rci(const SpectralConfig& cfg, index_t n, const EigWave& wave,
             const sparse::Coo& refine_w,
             const std::vector<real>& inv_sqrt_degree, SpectralResult& result) {
  const PrecisionPolicy& pp = cfg.precision;
  const Precision spmv_p = pp.resolve(PrecisionStage::kSpmv);
  const Precision basis_p = pp.resolve(PrecisionStage::kBasis);

  lanczos::LanczosConfig ec = eig_config(cfg, n);
  if (spmv_p != Precision::kFp64 || basis_p != Precision::kFp64) {
    // A narrow rung perturbs the operator at its unit roundoff; asking the
    // solver for residuals below that only burns restarts.  The fp64
    // refinement at solve end recovers the extra digits.
    const bool any_bf16 =
        spmv_p == Precision::kBf16 || basis_p == Precision::kBf16;
    ec.tol = std::max(ec.tol, any_bf16 ? real{1e-3} : real{1e-6});
  }
  const DegradationPolicy& pol = cfg.degradation;
  ec.capture_checkpoints =
      (pol.enabled && pol.resume_failed_solve) || cfg.capture_checkpoint;
  lanczos::SymEigProb prob(ec);
  if (cfg.warm_start != nullptr) {
    // Warm-start re-solve (service delta-edge path): reuse the donor's kept
    // Ritz basis when it matches this run's solver shape; otherwise fall
    // back to a cold start rather than failing the run.
    const lanczos::LanczosCheckpoint& cp = *cfg.warm_start;
    const lanczos::LanczosConfig& sc = prob.Solver().config();
    if (cp.valid() && cp.n == sc.n && cp.nev == sc.nev && cp.ncv == sc.ncv &&
        cp.which == static_cast<int>(sc.which) && cp.j == cp.nkept &&
        cp.nkept >= 1) {
      prob.RestoreWarm(cp);
      result.warm_started = true;
    } else {
      FASTSC_LOG_WARN("warm-start checkpoint incompatible with this solve "
                      "(shape or phase mismatch); cold-starting");
    }
  }

  // Invariant sentinels (DESIGN.md §14): ||S||_2 <= 1 for the normalized
  // operator, so ||y|| <= ||x|| and |x^T y| <= ||x||^2 up to the rungs'
  // roundoff.  No checksum storage — these catch corruption classes a
  // wave's own checks can miss (a flipped structure index, a torn
  // recurrence), on every device count.
  const bool sentinels_on = cfg.sdc.enabled && cfg.sdc.sentinels;
  const double tol_scale = static_cast<double>(cfg.sdc.tolerance_scale);
  const double eps_q = rung_eps(basis_p);  // basis staging quantization
  const double eps_m = rung_eps(spmv_p);   // matrix storage quantization
  const auto trip = [&](const std::string& why) {
    obs::sdc_note_detected("lanczos.sentinel", why);
    ++result.integrity.detected;
    result.integrity.events.push_back("lanczos.sentinel: " + why);
    throw device::DataIntegrityError("RCI sentinel tripped: " + why);
  };
  const auto un = static_cast<usize>(n);

  index_t resumes = 0;
  bool abandoned = false;
  for (;;) {
    try {
      while (!prob.converge()) {
        // One poll per reverse-communication wave; a deadline or cancellation
        // fired anywhere (including as a sticky stream error inside the wave)
        // unwinds to the anytime handler below.
        cancel::poll("lanczos.matvec");
        WallTimer t;
        const real* x = prob.GetVector();
        real* y = prob.PutVector();
        wave(x, y, prob.Solver().basis_size());
        if (sentinels_on) {
          obs::sdc_note_check();
          ++result.integrity.checks;
          double x2 = 0;
          double y2 = 0;
          double xy = 0;
          for (usize i = 0; i < un; ++i) {
            x2 += x[i] * x[i];
            y2 += y[i] * y[i];
            xy += x[i] * y[i];
          }
          const double one = (1 + tol_scale * (1e-6 + 8 * (eps_q + eps_m)));
          if (!(y2 <= one * one * x2)) {
            trip("||y|| exceeds the operator norm bound");
          } else if (!(std::abs(xy) <= one * x2)) {
            trip("Rayleigh quotient outside the operator's numerical range");
          }
          const real drift = prob.Solver().orthogonality_drift();
          if (!(drift <= tol_scale * (1e-8 + 64 * eps_q))) {
            trip("CGS2 basis orthogonality drift " + std::to_string(drift));
          }
        }
        result.spmv_seconds += t.seconds();
        prob.TakeStep();
      }
    } catch (const cancel::CancelledError& e) {
      cancel::Governor& gov = cancel::current_governor();
      if (!gov.anytime_allowed() || !prob.CanAbandon()) throw;
      // Anytime cut: freeze the iteration, keep the best partial Ritz pairs,
      // and stop enforcement so the rest of the pipeline (k-means on the
      // partial embedding) completes unimpeded.
      prob.Abandon();
      gov.begin_wrapup(e.site().empty() ? e.what() : e.site());
      abandoned = true;
    }
    if (abandoned || !prob.Failed() || !ec.capture_checkpoints ||
        resumes >= pol.max_solver_resumes ||
        !prob.Solver().has_checkpoint()) {
      break;
    }
    // Rewind to the last restart boundary and continue with an extended
    // budget instead of restarting the whole Krylov buildup from scratch.
    ++resumes;
    note_degradation(result, kStageEigensolver, "solver-resume",
                     "restart budget exhausted; resuming from checkpoint at "
                     "restart " +
                         std::to_string(
                             prob.Solver().last_checkpoint().restart_count));
    const index_t extended =
        prob.Solver().config().max_restarts + ec.max_restarts;
    prob.Restore(prob.Solver().last_checkpoint());
    prob.Solver().set_max_restarts(extended);
  }
  result.eigenvalues = prob.Eigenvalues();
  result.eig_converged = !prob.Failed();
  result.eig_stats = prob.Stats();
  if (sentinels_on && result.eig_converged) {
    // Spectral-range sanity: every Ritz value of D^-1/2 W D^-1/2 lies in
    // [-1, 1] up to the rungs' operator perturbation; anything outside (or
    // non-finite) means the tridiagonal recurrence itself was corrupted.
    obs::sdc_note_check();
    ++result.integrity.checks;
    const double slack = tol_scale * (1e-6 + 64 * (eps_q + eps_m));
    for (const real ev : result.eigenvalues) {
      if (!(std::abs(ev) <= 1 + slack)) {
        trip("Ritz value " + std::to_string(ev) + " outside [-1, 1]");
      }
    }
  }
  if (cfg.capture_checkpoint && prob.Solver().has_checkpoint()) {
    result.checkpoint = std::make_shared<lanczos::LanczosCheckpoint>(
        prob.Solver().last_checkpoint());
  }
  std::vector<real> vectors = prob.FindEigenvectors();
  if (refines(pp) && !vectors.empty()) {
    // fp64 rung of the ladder: Rayleigh-Ritz against the exact operator
    // recovers the digits the narrow solve left on the table and yields the
    // residual the auto ladder gates on.  Both drivers refine against W in
    // its original COO entry order, so the result is the same for every
    // device count.
    result.refine_residual = refine_eigenpairs_fp64(
        refine_w, inv_sqrt_degree, pp.refine_rounds, result.eigenvalues,
        vectors);
  }
  result.embedding =
      to_embedding(vectors, inv_sqrt_degree, cfg.num_clusters, n);
  result.precision_used = pp;
}

}  // namespace detail

namespace {

using detail::note_degradation;
using detail::reset_eig_result;

/// Device eigensolver stage: Algorithm 3.  The COO similarity matrix is
/// already device-resident; normalize (Algorithm 2), then drive the RCI loop
/// with one synchronous wave per step: stage x over the link (sealed by the
/// transfer CRC), run the row-serial csrmv (with the optional fused D^-1/2
/// epilogue), download y, and verify the wave's ABFT checksum.
void eigensolve_device(device::DeviceContext& ctx, sparse::DeviceCoo& w,
                       const SpectralConfig& cfg, SpectralResult& result,
                       const std::vector<real>* degrees = nullptr) {
  const index_t n = w.rows;
  const PrecisionPolicy& pp = cfg.precision;
  const Precision spmv_p = pp.resolve(PrecisionStage::kSpmv);
  const Precision basis_p = pp.resolve(PrecisionStage::kBasis);
  const bool fused = pp.fused();

  // The refinement operator must be the exact fp64 similarity matrix in its
  // original entry order (refine_eigenpairs_fp64's cross-device-count
  // contract); snapshot before Algorithm 2 sorts the device COO.
  sparse::Coo refine_w;
  if (refines(pp)) refine_w = w.to_host();  // D2H, metered

  device::DeviceBuffer<real> dev_isd;
  graph::NormalizeOptions nopts;
  nopts.fuse_scale = fused;
  nopts.degrees = degrees;
  sparse::DeviceCsr p = graph::sym_normalized_device(ctx, w, dev_isd, nopts);
  if (spmv_p != Precision::kFp64) sparse::demote_csr_values(ctx, p, spmv_p);

  // ABFT checksum vector (DESIGN.md §14): Huang-Abraham column sums of the
  // *effective* operator, taken from the same (possibly demoted) stored
  // values the kernels read.  With the fused D^-1/2 epilogue the effective
  // entry is s_r * w_rj * s_j, so c_j = s_j * sum_r s_r * w_rj.  Every SpMV
  // wave then verifies sum(y) == <c, x> up to accumulation roundoff.  Built
  // once per solve on the device, downloaded once (n doubles).
  const bool abft_spmv = cfg.sdc.enabled && cfg.sdc.abft_spmv;
  const usize nnz = p.col_idx.size();
  std::vector<real> abft_colsum;
  if (abft_spmv) {
    device::DeviceBuffer<real> dev_colsum(ctx, static_cast<usize>(n));
    obs::AttrSiteScope abft_site("sdc.checksum");
    const sparse::CsrValuesView vals = p.values_view();
    const index_t* rp = p.row_ptr.data();
    const index_t* ci = p.col_idx.data();
    const real* sd = fused ? dev_isd.data() : nullptr;
    real* c = dev_colsum.data();
    const index_t rows = p.rows;
    device::launch(
        ctx, 1,
        [=](index_t) {
          for (index_t j = 0; j < rows; ++j) c[j] = 0;
          for (index_t r = 0; r < rows; ++r) {
            const real sr = sd != nullptr ? sd[r] : real{1};
            for (index_t e = rp[r]; e < rp[r + 1]; ++e) {
              c[ci[e]] += sr * vals[e];
            }
          }
          if (sd != nullptr) {
            for (index_t j = 0; j < rows; ++j) c[j] *= sd[j];
          }
        },
        device::tagged("sdc.checksum", 2.0 * static_cast<double>(nnz),
                       12.0 * static_cast<double>(nnz),
                       8.0 * static_cast<double>(n)));
    abft_colsum = dev_colsum.to_host();  // D2H, metered
  }
  // Corruption-at-rest injection point for the matrix payload: *after* the
  // checksum build, so the colsums describe the values as computed and a
  // flipped stored bit is a detectable divergence.  (A flip before the
  // build would poison the checksum itself — a different threat model the
  // at-rest CRC frames cover.)
  switch (p.value_precision) {
    case Precision::kFp64:
      fault::corrupt_scalars("bitflip.csr.values", p.values.data(), nnz);
      break;
    case Precision::kFp32:
      fault::corrupt_scalars_f32("bitflip.csr.values", p.values_f32.data(),
                                 nnz);
      break;
    case Precision::kBf16:
      fault::corrupt_scalars_b16("bitflip.csr.values", p.values_b16.data(),
                                 nnz);
      break;
  }

  // Iteration-vector staging: fp64 buffers, or byte buffers at the basis
  // rung's width — the link then moves packed scalars and the quantization
  // point matches the sharded x replica exactly.
  const bool basis_narrow = basis_p != Precision::kFp64;
  const usize un = static_cast<usize>(n);
  const usize bw = bytes_per_scalar(basis_p);
  device::DeviceBuffer<unsigned char> x_stage(ctx, un * bw);
  device::DeviceBuffer<unsigned char> y_stage(ctx, un * bw);
  std::vector<unsigned char> stage_host(basis_narrow ? un * bw : 0);
  const ConstVecView xv(x_stage.data(), basis_p);
  const VecView yv(y_stage.data(), basis_p);
  const real* sc = fused ? dev_isd.data() : nullptr;

  // The transfer CRC is an exact byte compare of the staged x at every
  // rung; the ABFT checksum's only rung term is the basis quantization of
  // the staged x/y (the colsums already hold the quantized matrix values).
  const bool transfer_crc = cfg.sdc.enabled && cfg.sdc.transfer_crc;
  const double tol_scale = static_cast<double>(cfg.sdc.tolerance_scale);
  const double eps64 = std::numeric_limits<double>::epsilon() / 2;
  const double eps_q = rung_eps(basis_p);

  // Stage x to the device, inject the device-buffer bitflip site, and (when
  // enabled) seal the upload with a CRC frame: the device copy is re-hashed
  // by a device kernel and compared byte-for-byte against the host source,
  // so a flipped device bit is caught before any kernel consumes it.  A
  // mismatch throws *transient* and run_transfer_with_retry re-runs the
  // idempotent upload.
  const auto stage_x = [&](const real* x) {
    const void* host_src = x;
    {
      obs::AttrSiteScope stage_site("spmv.stage");
      if (basis_narrow) {
        pack_scalars(x, un, basis_p, stage_host.data());
        host_src = stage_host.data();
      }
      device::copy_h2d(ctx, x_stage.data(),
                       static_cast<const unsigned char*>(host_src), un * bw);
    }
    switch (basis_p) {
      case Precision::kFp64:
        fault::corrupt_scalars("bitflip.device.buffer",
                               reinterpret_cast<real*>(x_stage.data()), un);
        break;
      case Precision::kFp32:
        fault::corrupt_scalars_f32("bitflip.device.buffer",
                                   reinterpret_cast<float*>(x_stage.data()),
                                   un);
        break;
      case Precision::kBf16:
        fault::corrupt_scalars_b16(
            "bitflip.device.buffer",
            reinterpret_cast<std::uint16_t*>(x_stage.data()), un);
        break;
    }
    if (!transfer_crc) return;
    const usize bytes = un * bw;
    const unsigned char* dev_src = x_stage.data();
    std::uint32_t dev_crc = 0;
    {
      obs::AttrSiteScope crc_site("sdc.crc");
      std::uint32_t* out = &dev_crc;
      device::launch(
          ctx, 1, [=](index_t) { *out = crc32c(dev_src, bytes); },
          device::tagged("sdc.crc", static_cast<double>(bytes) / 8.0,
                         static_cast<double>(bytes), 4.0));
    }
    obs::sdc_note_check();
    ++result.integrity.checks;
    if (dev_crc != crc32c(host_src, bytes)) {
      obs::sdc_note_detected("device.buffer",
                             "staged x CRC mismatch after H2D");
      ++result.integrity.detected;
      result.integrity.events.push_back(
          "device.buffer: staged x CRC mismatch (re-uploading)");
      throw device::DataIntegrityError(
          "staged x buffer CRC mismatch after H2D", /*transient=*/true);
    }
  };

  const detail::EigWave wave = [&](const real* x, real* y, index_t) {
    // ABFT verify loop: one in-place recompute on a mismatch (a one-shot
    // upset is gone the second time), then escalate as a permanent
    // DataIntegrityError into the degradation ladder.
    for (int attempt = 0;; ++attempt) {
      {
        // One span per SpMV wave (H2D + csrmv + D2H).
        obs::ScopedSpan span("spmv", "wave");
        if (transfer_crc) {
          device::run_transfer_with_retry(ctx, "sdc.h2d",
                                          [&] { stage_x(x); });
        } else {
          stage_x(x);
        }
        sparse::device_csrmv_mp(ctx, p, xv, yv, 1.0, 0.0, sc);
        obs::AttrSiteScope stage_site("spmv.stage");
        if (basis_narrow) {
          device::copy_d2h(ctx, stage_host.data(), y_stage.data(), un * bw);
          unpack_scalars(stage_host.data(), un, basis_p, y);
        } else {
          device::copy_d2h(ctx, reinterpret_cast<unsigned char*>(y),
                           y_stage.data(), un * bw);
        }
      }
      // In-flight basis corruption: the product on its way back into the
      // host-side recurrence.
      fault::corrupt_scalars("bitflip.basis.column", y, un);
      if (!abft_spmv) return;
      obs::sdc_note_check();
      ++result.integrity.checks;
      double cx = 0;
      double ysum = 0;
      double ynorm1 = 0;
      for (usize i = 0; i < un; ++i) {
        cx += static_cast<double>(abft_colsum[i]) * quantize(x[i], basis_p);
        ysum += y[i];
        ynorm1 += std::abs(static_cast<double>(y[i]));
      }
      const double tol =
          tol_scale *
          (eps64 * 64 *
               std::sqrt(static_cast<double>(nnz) + static_cast<double>(un)) *
               (std::abs(cx) + ynorm1) +
           2 * eps_q * ynorm1 + 1e-300);
      if (std::abs(ysum - cx) <= tol) return;
      obs::sdc_note_detected(
          "spmv.wave", "|sum(y) - <c,x>| = " +
                           std::to_string(std::abs(ysum - cx)) + " > tol " +
                           std::to_string(tol));
      ++result.integrity.detected;
      result.integrity.events.push_back("spmv.wave: ABFT checksum mismatch");
      if (attempt == 0) {
        obs::sdc_note_recomputed("spmv.wave");
        ++result.integrity.recomputed;
        continue;
      }
      throw device::DataIntegrityError(
          "SpMV ABFT checksum mismatch persisted after block recompute");
    }
  };
  const std::vector<real> isd = dev_isd.to_host();  // D2H, metered
  detail::run_rci(cfg, n, wave, refine_w, isd, result);
}

void eigensolve_host(const sparse::Coo& w, const SpectralConfig& cfg,
                     SpectralResult& result);

/// Eigensolver degradation ladder: device -> (integrity failures) fp64
/// re-solve and rebuilt device state -> host backend.  `device_w` /
/// `host_w` lazily materialize the similarity matrix on the respective side,
/// so a rung only pays for the representation it actually uses.  `degrees`
/// optionally carries the operator row sums from the fused similarity+degree
/// build so Algorithm 2 skips its ones-SpMV.
template <class DeviceW, class HostW>
void eigensolve_device_ladder(device::DeviceContext& ctx,
                              const SpectralConfig& cfg,
                              SpectralResult& result, DeviceW&& device_w,
                              HostW&& host_w,
                              const std::vector<real>* degrees = nullptr) {
  const DegradationPolicy& pol = cfg.degradation;
  const auto solve = [&](const SpectralConfig& c) {
    eigensolve_device(ctx, device_w(), c, result, degrees);
  };
  std::exception_ptr last_error;
  std::string reason;
  bool integrity = false;
  try {
    detail::solve_with_precision_fallback(cfg, result, solve);
    return;
  } catch (const device::DeviceError& e) {
    if (!pol.enabled) throw;
    last_error = std::current_exception();
    reason = e.what();
    integrity = dynamic_cast<const device::DataIntegrityError*>(&e) != nullptr;
  }
  // SDC escalation rung (DESIGN.md §14): a detected-but-unrecovered
  // corruption on a narrow-precision solve re-runs at full fp64 first — the
  // extra mantissa headroom separates real upsets from rung roundoff, and
  // the rebuilt device state leaves any poisoned payload behind.
  if (integrity && cfg.sdc.enabled && !cfg.precision.all_fp64()) {
    note_degradation(result, kStageEigensolver, "sdc-fp64-resolve", reason);
    SpectralConfig fb_cfg = cfg;
    fb_cfg.precision = cfg.precision.fp64_fallback();
    reset_eig_result(result);
    try {
      obs::AttrSiteScope rung_site("fallback.sdc_fp64");
      solve(fb_cfg);
      return;
    } catch (const device::DeviceError& e) {
      last_error = std::current_exception();
      reason = e.what();
    }
  }
  // Recompute-from-source rung for integrity failures: it rebuilds every
  // device-resident payload (normalized CSR, checksums) from the COO, which
  // clears at-rest corruption.
  if (pol.allow_sync_fallback && integrity) {
    note_degradation(result, kStageEigensolver, "device-sync", reason);
    reset_eig_result(result);
    try {
      // Ladder-rung site: the retried solve's device work lands in its own
      // bucket so a degraded run is visible in the attribution table.
      obs::AttrSiteScope rung_site("fallback.device_sync");
      detail::solve_with_precision_fallback(cfg, result, solve);
      return;
    } catch (const device::DeviceError& e) {
      last_error = std::current_exception();
      reason = e.what();
    }
  }
  if (!pol.allow_host_fallback) std::rethrow_exception(last_error);
  note_degradation(result, kStageEigensolver, "host-eigensolver", reason);
  reset_eig_result(result);
  SpectralConfig host_cfg = cfg;
  host_cfg.backend = Backend::kMatlabLike;
  obs::AttrSiteScope rung_site("fallback.host_eigensolver");
  eigensolve_host(host_w(), host_cfg, result);
}

void eigensolve_host(const sparse::Coo& w, const SpectralConfig& cfg,
                     SpectralResult& result) {
  std::vector<real> isd;
  const sparse::Csr p = graph::sym_normalized_host(w, isd);
  const auto eig =
      cfg.backend == Backend::kMatlabLike
          ? baseline::eigensolve_matlab(p, cfg.num_clusters, cfg.which,
                                        cfg.eig_tol, cfg.ncv, cfg.max_restarts,
                                        cfg.seed)
          : baseline::eigensolve_python(p, cfg.num_clusters, cfg.which,
                                        cfg.eig_tol, cfg.ncv, cfg.max_restarts,
                                        cfg.seed);
  result.eigenvalues = eig.eigenvalues;
  result.eig_converged = eig.converged;
  result.eig_stats = eig.stats;
  result.spmv_seconds = eig.spmv_seconds;
  result.embedding =
      to_embedding(eig.eigenvectors, isd, cfg.num_clusters, w.rows);
}

}  // namespace

namespace detail {

namespace {

/// One pass of Step 4 over the (already NJW-normalized) embedding with the
/// configured backend; the device backend walks its degradation ladder.
void kmeans_stage_run(device::DeviceGroup& group,
                      std::span<const index_t> cuts, const SpectralConfig& cfg,
                      SpectralResult& result) {
  const index_t n = result.n;
  const index_t k = cfg.num_clusters;
  const real* emb = result.embedding.data();
  const auto assign = [&](const kmeans::KmeansResult& res) {
    result.labels = res.labels;
    result.kmeans_converged = res.converged;
    result.kmeans_iterations = res.iterations;
    result.kmeans_inertia_history = res.inertia_history;
  };
  switch (cfg.backend) {
    case Backend::kDevice: {
      kmeans::KmeansConfig kc;
      kc.k = k;
      kc.max_iters = cfg.kmeans_max_iters;
      kc.seeding = cfg.seeding;
      kc.seed = cfg.seed;
      kc.precision = cfg.precision.resolve(PrecisionStage::kKmeans);
      kc.record_inertia = cfg.record_kmeans_inertia;
      kc.abft = cfg.sdc.enabled && cfg.sdc.abft_kmeans;
      kc.abft_tolerance_scale = cfg.sdc.tolerance_scale;
      const auto run_device = [&] {
        const kmeans::KmeansResult res =
            kmeans::kmeans_group(group, cuts, emb, n, k, kc);
        result.integrity.checks += res.abft_checks;
        result.integrity.detected += res.abft_detected;
        result.integrity.recomputed += res.abft_recomputed;
        for (std::uint64_t i = 0; i < res.abft_detected; ++i) {
          result.integrity.events.push_back(
              "gemm.kmeans_dist: ABFT checksum mismatch");
        }
        assign(res);
      };
      // Degradation ladder: device -> device rebuilt from the host
      // embedding -> host Lloyd.  Only an integrity failure takes the
      // rebuild rung: the rerun re-uploads every device's point block,
      // which clears a one-shot upset.
      const DegradationPolicy& pol = cfg.degradation;
      std::exception_ptr last_error;
      std::string reason;
      bool integrity = false;
      try {
        run_device();
        return;
      } catch (const device::DeviceError& e) {
        if (!pol.enabled) throw;
        last_error = std::current_exception();
        reason = e.what();
        integrity =
            dynamic_cast<const device::DataIntegrityError*>(&e) != nullptr;
      }
      if (integrity) {
        ++result.integrity.detected;
        result.integrity.events.push_back("gemm.kmeans_dist: " + reason);
      }
      if (integrity && pol.allow_sync_fallback) {
        note_degradation(result, kStageKmeans, "kmeans-rebuild", reason);
        try {
          obs::AttrSiteScope rung_site("fallback.kmeans_rebuild");
          run_device();
          return;
        } catch (const device::DeviceError& e) {
          last_error = std::current_exception();
          reason = e.what();
        }
      }
      if (!pol.allow_host_fallback) std::rethrow_exception(last_error);
      note_degradation(result, kStageKmeans, "host-kmeans", reason);
      obs::AttrSiteScope rung_site("fallback.host_kmeans");
      assign(kmeans::kmeans_lloyd_host(emb, n, k, kc));
      return;
    }
    case Backend::kMatlabLike: {
      const auto res = baseline::kmeans_matlab(emb, n, k, k,
                                               cfg.kmeans_max_iters, cfg.seed);
      result.labels = res.labels;
      result.kmeans_converged = res.converged;
      result.kmeans_iterations = res.iterations;
      result.kmeans_inertia_history = res.inertia_history;
      return;
    }
    case Backend::kPythonLike: {
      const auto res = baseline::kmeans_python(emb, n, k, k,
                                               cfg.kmeans_max_iters, cfg.seed);
      result.labels = res.labels;
      result.kmeans_converged = res.converged;
      result.kmeans_iterations = res.iterations;
      result.kmeans_inertia_history = res.inertia_history;
      return;
    }
  }
}

}  // namespace

void kmeans_stage(device::DeviceGroup& group, std::span<const index_t> cuts,
                  const SpectralConfig& cfg, SpectralResult& result) {
  if (cfg.validate_inputs) {
    // The embedding is the k-means input; an abandoned eigensolve or a NaN
    // that slipped through a degraded rung must not poison the labels.
    check_finite(result.embedding, "spectral embedding (k-means input)");
  }
  if (cfg.row_normalize_embedding) {
    // Ng-Jordan-Weiss: project each embedded point onto the unit sphere.
    const index_t k = result.k;
    for (index_t i = 0; i < result.n; ++i) {
      real* row = result.embedding.data() + i * k;
      real norm = 0;
      for (index_t l = 0; l < k; ++l) norm += row[l] * row[l];
      if (norm > 0) {
        const real inv = 1.0 / std::sqrt(norm);
        for (index_t l = 0; l < k; ++l) row[l] *= inv;
      }
    }
  }
  try {
    kmeans_stage_run(group, cuts, cfg, result);
  } catch (const cancel::CancelledError& e) {
    // The stage's own deadline expired somewhere labels are not yet valid
    // (seeding, the first sweep).  With anytime enabled, enter wrap-up —
    // enforcement stops — and rerun the stage to completion so the caller
    // still gets a full assignment.
    cancel::Governor& gov = cancel::current_governor();
    if (!gov.anytime_allowed()) throw;
    gov.begin_wrapup(e.site().empty() ? e.what() : e.site());
    kmeans_stage_run(group, cuts, cfg, result);
  }
}

}  // namespace detail

namespace {

/// Step 4 on one context: the group-wide stage over a group of one.
void kmeans_stage_single(device::DeviceContext& ctx, const SpectralConfig& cfg,
                         SpectralResult& result) {
  device::DeviceGroup group(ctx);
  const index_t cuts[] = {0, result.n};
  detail::kmeans_stage(group, cuts, cfg, result);
}

device::DeviceContext& resolve_ctx(device::DeviceContext* ctx) {
  return ctx != nullptr ? *ctx : device::default_device();
}

/// Arms the cancellation governor for this run when a budget, watchdog, or
/// external token is configured; plain runs never arm, so every poll site
/// stays on its single-relaxed-load fast path.  The config's budget wins
/// over FASTSC_BUDGET.
void govern_run(const SpectralConfig& config, device::DeviceContext& ctx,
                std::optional<cancel::RunScope>& scope) {
  const cancel::RunBudget& budget =
      config.budget.enabled() ? config.budget : cancel::env_budget();
  if (budget.enabled() || config.watchdog.enabled() ||
      config.cancel_token.valid()) {
    scope.emplace(budget, config.watchdog, config.cancel_token,
                  [&ctx] { return ctx.modeled_transfer_seconds_now(); });
  }
}

using device::counters_delta;

}  // namespace

SpectralResult spectral_cluster_points(const real* x, index_t n, index_t d,
                                       const graph::EdgeList& edges,
                                       const SpectralConfig& config,
                                       device::DeviceContext* ctx_in) {
  FASTSC_CHECK(n >= 2, "need at least two points");
  FASTSC_CHECK(config.num_clusters >= 1 && config.num_clusters <= n,
               "cluster count must be in [1, n]");
  if (config.validate_inputs) {
    check_finite({x, static_cast<usize>(n) * static_cast<usize>(d)},
                 "input points");
    check_index_range(edges.u, n, "edge endpoint");
    check_index_range(edges.v, n, "edge endpoint");
  }
  if (config.num_devices > 1) {
    FASTSC_LOG_WARN("num_devices > 1 is only supported for the graph "
                    "pipeline (spectral_cluster_graph); running the points "
                    "pipeline single-device");
  }
  device::DeviceContext& ctx = resolve_ctx(ctx_in);
  // Snapshot under the meter mutex: with fastsc::Service, other jobs' stream
  // threads may be metering this context concurrently.
  const device::DeviceCounters counters_before = ctx.counters_snapshot();
  const obs::TraceEnableScope trace_scope(config.trace);
  std::optional<fault::ArmScope> fault_scope;
  if (!config.faults.empty()) fault_scope.emplace(config.faults);
  std::optional<cancel::RunScope> cancel_scope;
  govern_run(config, ctx, cancel_scope);

  SpectralResult result;
  result.n = n;
  result.k = config.num_clusters;

  const graph::EdgeList sym = graph::symmetrized(edges);

  if (config.backend == Backend::kDevice) {
    const DegradationPolicy& pol = config.degradation;
    std::optional<sparse::DeviceCoo> dev_w;
    sparse::Coo host_w_storage;
    bool have_host = false;
    std::vector<real> fused_degrees;
    bool have_degrees = false;

    result.clock.start(kStageSimilarity);
    {
      obs::ScopedSpan span(kStageSimilarity, "stage");
      cancel::StageScope budget_scope(kStageSimilarity);
      obs::AttrSiteScope stage_site("stage.similarity");
      const Precision sim_p =
          config.precision.resolve(PrecisionStage::kSimilarity);
      try {
        if (config.similarity_chunk_edges > 0) {
          // Out-of-core Algorithm 1: the edge list streams through the
          // device.
          host_w_storage = graph::build_similarity_device_chunked(
              ctx, x, n, d, sym, config.similarity,
              config.similarity_chunk_edges);
          have_host = true;
          dev_w.emplace(ctx, host_w_storage);
        } else if (config.precision.fused() || sim_p != Precision::kFp64) {
          // Fused Algorithm 1 + degree pass (DESIGN.md §13): similarity
          // values quantize to the rung on store, and the operator row sums
          // come out of the same edge sweep so Algorithm 2 skips its
          // ones-SpMV.
          dev_w.emplace(graph::build_similarity_device_fused_degrees(
              ctx, x, n, d, sym, config.similarity, fused_degrees, sim_p));
          have_degrees = true;
        } else {
          dev_w.emplace(graph::build_similarity_device(ctx, x, n, d, sym,
                                                       config.similarity));
        }
      } catch (const device::DeviceError& e) {
        if (!pol.enabled || !pol.allow_host_fallback) throw;
        note_degradation(result, kStageSimilarity, "host-similarity",
                         e.what());
        dev_w.reset();
        have_degrees = false;
        obs::AttrSiteScope rung_site("fallback.host_similarity");
        host_w_storage =
            baseline::similarity_loop(x, n, d, sym, config.similarity);
        have_host = true;
      }
    }
    result.clock.stop();

    result.clock.start(kStageEigensolver);
    {
      obs::ScopedSpan span(kStageEigensolver, "stage");
      cancel::StageScope budget_scope(kStageEigensolver);
      obs::AttrSiteScope stage_site("stage.eigensolver");
      auto device_w = [&]() -> sparse::DeviceCoo& {
        if (!dev_w) dev_w.emplace(ctx, host_w_storage);
        return *dev_w;
      };
      auto host_w = [&]() -> const sparse::Coo& {
        if (!have_host) {
          host_w_storage = dev_w->to_host();  // D2H, metered
          have_host = true;
        }
        return host_w_storage;
      };
      eigensolve_device_ladder(ctx, config, result, device_w, host_w,
                               have_degrees ? &fused_degrees : nullptr);
    }
    result.clock.stop();
  } else {
    result.clock.start(kStageSimilarity);
    sparse::Coo w;
    {
      obs::ScopedSpan span(kStageSimilarity, "stage");
      cancel::StageScope budget_scope(kStageSimilarity);
      w = baseline::similarity_loop(x, n, d, sym, config.similarity);
    }
    result.clock.stop();

    result.clock.start(kStageEigensolver);
    {
      obs::ScopedSpan span(kStageEigensolver, "stage");
      cancel::StageScope budget_scope(kStageEigensolver);
      eigensolve_host(w, config, result);
    }
    result.clock.stop();
  }

  result.clock.start(kStageKmeans);
  {
    obs::ScopedSpan span(kStageKmeans, "stage");
    cancel::StageScope budget_scope(kStageKmeans);
    obs::AttrSiteScope stage_site("stage.kmeans");
    kmeans_stage_single(ctx, config, result);
  }
  result.clock.stop();

  if (cancel::Governor& gov = cancel::current_governor(); gov.armed()) {
    result.budget = gov.report();
  }
  result.device_counters =
      counters_delta(ctx.counters_snapshot(), counters_before);
  return result;
}

SpectralResult spectral_cluster_graph(const sparse::Coo& w,
                                      const SpectralConfig& config,
                                      device::DeviceContext* ctx_in) {
  FASTSC_CHECK(w.rows == w.cols, "graph matrix must be square");
  FASTSC_CHECK(config.num_clusters >= 1 && config.num_clusters <= w.rows,
               "cluster count must be in [1, n]");
  if (config.validate_inputs) {
    check_finite(w.values, "similarity matrix values");
    check_index_range(w.row_idx, w.rows, "similarity matrix row");
    check_index_range(w.col_idx, w.cols, "similarity matrix column");
  }
  {
    // A disconnected graph makes the eigenvalue 1 of D^-1 W degenerate
    // (one copy per component), which a Krylov iteration from a single
    // start vector resolves slowly and unreliably.  Warn so callers can
    // split components (graph::largest_component) or reconnect weakly.
    const graph::ComponentInfo info = graph::connected_components(w);
    if (info.count > 1) {
      FASTSC_LOG_WARN("input graph has "
                      << info.count
                      << " connected components; spectral clustering is "
                         "only well-posed per component — consider "
                         "graph::largest_component or a connected "
                         "similarity graph");
    }
  }
  device::DeviceContext& ctx = resolve_ctx(ctx_in);

  // Multi-device path: a transient DeviceGroup inheriting this context's
  // transfer model runs the row-sharded pipeline.  A permanent device error
  // degrades to the single-device pipeline below (the last rung before the
  // per-stage ladders take over).
  std::string sharded_fallback_reason;
  if (config.backend == Backend::kDevice && config.num_devices > 1) {
    device::DeviceGroupConfig gc;
    gc.num_devices = static_cast<usize>(config.num_devices);
    gc.model = ctx.transfer_model();
    device::DeviceGroup group(gc);
    try {
      return spectral_cluster_graph_sharded(w, config, group);
    } catch (const device::DeviceError& e) {
      if (!config.degradation.enabled) throw;
      sharded_fallback_reason = e.what();
    }
  }

  // Snapshot under the meter mutex: with fastsc::Service, other jobs' stream
  // threads may be metering this context concurrently.
  const device::DeviceCounters counters_before = ctx.counters_snapshot();
  const obs::TraceEnableScope trace_scope(config.trace);
  std::optional<fault::ArmScope> fault_scope;
  if (!config.faults.empty()) fault_scope.emplace(config.faults);
  std::optional<cancel::RunScope> cancel_scope;
  govern_run(config, ctx, cancel_scope);

  SpectralResult result;
  result.n = w.rows;
  result.k = config.num_clusters;
  if (!sharded_fallback_reason.empty()) {
    note_degradation(result, kStageEigensolver, "single-device",
                     sharded_fallback_reason);
  }

  result.clock.start(kStageEigensolver);
  {
    obs::ScopedSpan span(kStageEigensolver, "stage");
    cancel::StageScope budget_scope(kStageEigensolver);
    obs::AttrSiteScope stage_site("stage.eigensolver");
    if (config.backend == Backend::kDevice) {
      // Transfer the graph to the device (part of the eigensolver stage cost,
      // matching the paper's accounting for the graph datasets).  The upload
      // is lazy so a degraded run that never touches the device skips it.
      std::optional<sparse::DeviceCoo> dev_w;
      auto device_w = [&]() -> sparse::DeviceCoo& {
        if (!dev_w) dev_w.emplace(ctx, w);
        return *dev_w;
      };
      auto host_w = [&]() -> const sparse::Coo& { return w; };
      eigensolve_device_ladder(ctx, config, result, device_w, host_w);
    } else {
      eigensolve_host(w, config, result);
    }
  }
  result.clock.stop();

  result.clock.start(kStageKmeans);
  {
    obs::ScopedSpan span(kStageKmeans, "stage");
    cancel::StageScope budget_scope(kStageKmeans);
    obs::AttrSiteScope stage_site("stage.kmeans");
    kmeans_stage_single(ctx, config, result);
  }
  result.clock.stop();

  if (cancel::Governor& gov = cancel::current_governor(); gov.armed()) {
    result.budget = gov.report();
  }
  result.device_counters =
      counters_delta(ctx.counters_snapshot(), counters_before);
  return result;
}

}  // namespace fastsc::core
