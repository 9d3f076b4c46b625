#include "core/spectral.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <optional>
#include <span>

#include "baseline/matlab_like.h"
#include "baseline/python_like.h"
#include "common/cancel.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "common/log.h"
#include "common/validation.h"
#include "common/timer.h"
#include "device/device_group.h"
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
#include "sparse/shard.h"
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

/// Record one degradation decision: result report + degrade.* counters +
/// trace counter + a WARN so unattended runs leave an audit trail.
void note_degradation(SpectralResult& result, const char* stage,
                      const char* action, const std::string& reason) {
  result.degradation.degraded = true;
  result.degradation.events.push_back(DegradationEvent{stage, action, reason});
  obs::bump("degrade.fallback");
  obs::metrics().counter(std::string("degrade.") + action).add();
  FASTSC_LOG_WARN("degradation: stage '" << stage << "' -> " << action << " ("
                                         << reason << ")");
}

/// Clear the eigensolver outputs of an abandoned attempt before the next
/// ladder rung re-runs the stage (degradation events are kept).
void reset_eig_result(SpectralResult& result) {
  result.eigenvalues.clear();
  result.embedding.clear();
  result.eig_converged = false;
  result.eig_stats = {};
  result.spmv_seconds = 0;
  result.checkpoint.reset();
  result.warm_started = false;
}

/// Run a stage whose partial result may not exist yet when a deadline
/// fires (Algorithm 1 before W is whole, the eigensolver before its basis
/// holds nev vectors, k-means before its first full assignment).  With
/// anytime enabled the cut enters wrap-up — enforcement stops — and reruns
/// the stage to completion, so the caller still gets a full result; other
/// causes unwind.
template <class Stage>
void run_to_completion(Stage&& stage) {
  try {
    stage();
  } catch (const cancel::CancelledError& e) {
    cancel::Governor& gov = cancel::current_governor();
    if (!gov.anytime_allowed()) throw;
    gov.begin_wrapup(e.site().empty() ? e.what() : e.site());
    stage();
  }
}

/// One pipeline stage: wall clock, trace span and the attribution site its
/// device work lands under.
template <class Fn>
void run_stage(SpectralResult& result, const char* stage, const char* site,
               Fn&& fn) {
  result.clock.start(stage);
  {
    obs::ScopedSpan span(stage, "stage");
    obs::AttrSiteScope stage_site(site);
    fn();
  }
  result.clock.stop();
}

/// One reverse-communication wave (paper Algorithm 3): y = S x for the
/// solver's host vector x, written to host y (both length n).  `basis` is
/// the Lanczos basis size at this wave.  A wave reports detected corruption
/// by throwing device::DataIntegrityError.
using EigWave = std::function<void(const real* x, real* y, index_t basis)>;

/// The device eigensolve around lanczos::rci_loop.  It owns the steps
/// around the wave: warm start, checkpoint resume, the per-wave and
/// Ritz-range sentinels, checkpoint export, Ritz extraction and the
/// embedding through `inv_sqrt_degree`.
void run_rci(const SpectralConfig& cfg, index_t n, const EigWave& wave,
             const std::vector<real>& inv_sqrt_degree, SpectralResult& result) {
  lanczos::LanczosConfig ec = eig_config(cfg, n);
  const DegradationPolicy& pol = cfg.degradation;
  ec.capture_checkpoints =
      (pol.enabled && pol.resume_failed_solve) || cfg.capture_checkpoint;
  lanczos::SymLanczos solver(ec);
  if (cfg.warm_start != nullptr) {
    // Warm-start re-solve (service delta-edge path): reuse the donor's kept
    // Ritz basis when it matches this run's solver shape; otherwise fall
    // back to a cold start rather than failing the run.
    const lanczos::LanczosCheckpoint& cp = *cfg.warm_start;
    const lanczos::LanczosConfig& sc = solver.config();
    if (cp.valid() && cp.n == sc.n && cp.nev == sc.nev && cp.ncv == sc.ncv &&
        cp.which == static_cast<int>(sc.which) && cp.j == cp.nkept &&
        cp.nkept >= 1) {
      solver.restore_warm(cp);
      result.warm_started = true;
    } else {
      FASTSC_LOG_WARN("warm-start checkpoint incompatible with this solve "
                      "(shape or phase mismatch); cold-starting");
    }
  }

  // Invariant sentinels (DESIGN.md §14): ||S||_2 <= 1 for the normalized
  // operator, so ||y|| <= ||x|| and |x^T y| <= ||x||^2 up to roundoff.  No
  // checksum storage — these catch corruption classes a wave's own checks
  // can miss (a flipped structure index, a torn recurrence), on every
  // device count.
  const bool sentinels_on = cfg.sdc.enabled;
  const auto trip = [&](const std::string& why) {
    obs::sdc_note_detected("lanczos.sentinel", why);
    ++result.integrity.detected;
    result.integrity.events.push_back("lanczos.sentinel: " + why);
    throw device::DataIntegrityError("RCI sentinel tripped: " + why);
  };
  const auto un = static_cast<usize>(n);
  const lanczos::Matvec checked_wave = [&](const real* x, real* y) {
    wave(x, y, solver.basis_size());
    if (!sentinels_on) return;
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
    const double one = 1 + 1e-6;
    if (!(y2 <= one * one * x2)) {
      trip("||y|| exceeds the operator norm bound");
    } else if (!(std::abs(xy) <= one * x2)) {
      trip("Rayleigh quotient outside the operator's numerical range");
    }
    const real drift = solver.orthogonality_drift();
    if (!(drift <= 1e-8)) {
      trip("CGS2 basis orthogonality drift " + std::to_string(drift));
    }
  };

  index_t resumes = 0;
  for (;;) {
    const lanczos::RciRun run = lanczos::rci_loop(solver, checked_wave);
    result.spmv_seconds += run.matvec_seconds;
    result.eig_converged =
        run.action == lanczos::SymLanczos::Action::kConverged;
    if (run.abandoned || result.eig_converged || !ec.capture_checkpoints ||
        resumes >= pol.max_solver_resumes || !solver.has_checkpoint()) {
      break;
    }
    // Rewind to the last restart boundary and continue with an extended
    // budget instead of restarting the whole Krylov buildup from scratch.
    ++resumes;
    const lanczos::LanczosCheckpoint& cp = solver.last_checkpoint();
    note_degradation(result, kStageEigensolver, "solver-resume",
                     "restart budget exhausted; resuming from checkpoint at "
                     "restart " + std::to_string(cp.restart_count));
    const index_t extended = solver.config().max_restarts + ec.max_restarts;
    solver.restore(cp);
    solver.set_max_restarts(extended);
  }
  result.eigenvalues = solver.eigenvalues();
  result.eig_stats = solver.stats();
  if (sentinels_on && result.eig_converged) {
    // Spectral-range sanity: every Ritz value of D^-1/2 W D^-1/2 lies in
    // [-1, 1] up to roundoff; anything outside (or non-finite) means the
    // tridiagonal recurrence itself was corrupted.
    obs::sdc_note_check();
    ++result.integrity.checks;
    for (const real ev : result.eigenvalues) {
      if (!(std::abs(ev) <= 1 + 1e-6)) {
        trip("Ritz value " + std::to_string(ev) + " outside [-1, 1]");
      }
    }
  }
  if (cfg.capture_checkpoint && solver.has_checkpoint()) {
    result.checkpoint = std::make_shared<lanczos::LanczosCheckpoint>(
        solver.last_checkpoint());
  }
  result.embedding = to_embedding(solver.extract_eigenvectors(),
                                  inv_sqrt_degree, cfg.num_clusters, n);
}

/// Meter one wave of row-sharded CGS2 reorthogonalization: each device runs
/// the partial GEMV pair over its local rows against the j-vector basis
/// (twice — "twice is enough"), then the j+1 coefficient vector allreduces
/// through the group.  The arithmetic itself stays in the host solver
/// (bitwise the same for every device count); this charges where the flops
/// and wire traffic would land on a real multi-GPU eigensolver.  A group of
/// one meters its GEMVs and no exchange.
void meter_cgs2_wave(device::DeviceGroup& group,
                     const sparse::RowPartition& part, index_t j) {
  if (j <= 0) return;
  for (usize d = 0; d < group.size(); ++d) {
    const auto n_local =
        static_cast<double>(part.size(static_cast<index_t>(d)));
    if (n_local <= 0) continue;
    obs::KernelCost cost;
    cost.site = "cgs2.partial_gemv";
    cost.flops = 8.0 * n_local * static_cast<double>(j);
    cost.bytes_read =
        4.0 * n_local * static_cast<double>(j) * sizeof(real);
    cost.bytes_written = 2.0 * n_local * sizeof(real);
    group.device(d).record_kernel(0.0, -1.0, cost);
  }
  // Recursive-doubling allreduce of the coefficient vector (two CGS passes
  // per wave ride one fused exchange).  Every device receives exactly one
  // message per round — ceil(log2 P) per wave on each link — instead of a
  // star serializing 2(P-1) message latencies on the root's link.
  const usize coeff_bytes = 2 * static_cast<usize>(j + 1) * sizeof(real);
  const usize P = group.size();
  for (usize r = 1; r < P; r *= 2) {
    for (usize d = 0; d < P; ++d) {
      const usize peer = d ^ r;
      if (peer >= P || peer < d) continue;
      group.model_peer_transfer(d, peer, coeff_bytes, "d2d.allreduce");
      group.model_peer_transfer(peer, d, coeff_bytes, "d2d.allreduce");
    }
  }
}

/// The similarity matrix W as the eigensolver stage's input.  `host` is W
/// — what the N > 1 row bucketing and the host rung read — downloaded at
/// most once; `dev` is the root device's copy, which a group of one
/// normalizes directly.  Algorithm 2 only reads W, so both copies keep the
/// build's entry order and every ladder rung rebuilds the same operator.
struct SimilaritySource {
  explicit SimilaritySource(device::DeviceContext& r,
                            const sparse::Coo* h = nullptr)
      : root(r), host(h) {}

  device::DeviceContext& root;
  const sparse::Coo* host;
  sparse::Coo host_storage;
  std::optional<sparse::DeviceCoo> dev;

  const sparse::Coo& host_w() {
    if (host == nullptr) {
      host_storage = dev->to_host();  // D2H, metered
      host = &host_storage;
    }
    return *host;
  }
  const sparse::DeviceCoo& device_w() {
    if (!dev) dev.emplace(root, *host);  // H2D, metered
    return *dev;
  }
};

/// Row cuts of the eigensolver's operator, which k-means reuses: one part
/// for a group of one; otherwise the merge-path cut of W's row histogram
/// (normalization keeps the structure, so it equals the final CSR's
/// row_ptr) on k-means block boundaries.
sparse::RowPartition eig_partition(device::DeviceGroup& group,
                                   SimilaritySource& src, index_t n,
                                   const SpectralConfig& cfg) {
  if (group.size() == 1) return sparse::whole_partition(n);
  std::vector<index_t> row_ptr(static_cast<usize>(n) + 1, 0);
  for (const index_t r : src.host_w().row_idx) {
    ++row_ptr[static_cast<usize>(r) + 1];
  }
  for (index_t r = 0; r < n; ++r) {
    row_ptr[static_cast<usize>(r) + 1] += row_ptr[static_cast<usize>(r)];
  }
  // Per row and wave the dense stages read ~4 * ncv doubles (the CGS2
  // sweeps dominate; k-means assignment and the PCIe x/y staging scale the
  // same way) against ~20 bytes per CSR entry for the SpMV, so a row weighs
  // roughly ncv entries.  Weighting the merge path accordingly balances
  // rows and entries together instead of entries alone.
  return sparse::make_row_partition(
      row_ptr.data(), n, static_cast<index_t>(group.size()),
      kmeans::kBlockRows, lanczos::resolve_ncv(n, cfg.num_clusters, cfg.ncv));
}

/// Device eigensolve over `group` (paper Algorithm 3): Algorithm 2 over one
/// COO chunk per device, then the RCI loop with one synchronous wave per
/// step.  Each wave stages every device's x segment (sealed by the transfer
/// CRC), exchanges halos, multiplies each row block, fetches y, and
/// verifies one ABFT checksum over y.
void eigensolve_group(device::DeviceGroup& group, SimilaritySource& src,
                      const sparse::RowPartition& part,
                      const SpectralConfig& cfg, SpectralResult& result) {
  const index_t n = part.rows;
  const usize P = group.size();

  // A group of one normalizes the root's resident COO; a larger group
  // buckets the host copy by row block and uploads each chunk to its owner.
  std::vector<sparse::Coo> host_chunks;
  std::vector<sparse::DeviceCoo> dev_chunks;
  std::span<const sparse::DeviceCoo> chunks;
  if (P == 1) {
    chunks = std::span<const sparse::DeviceCoo>(&src.device_w(), 1);
  } else {
    host_chunks = sparse::bucket_rows(src.host_w(), part);
    dev_chunks.reserve(P);
    for (usize d = 0; d < P; ++d) {
      dev_chunks.emplace_back(group.device(d), host_chunks[d]);
    }
    chunks = dev_chunks;
  }
  graph::GroupNormalized norm =
      graph::sym_normalized_group(group, chunks, part);
  dev_chunks.clear();
  sparse::ShardedCsr op = sparse::shard_device_locals(
      group, part, std::move(norm.blocks), host_chunks);
  host_chunks.clear();
  norm.isd.clear();

  // ABFT checksum vector (DESIGN.md §14): Huang-Abraham column sums of the
  // operator, taken from the same stored values the kernels read.  Each
  // device sums its own rows on the device; the partials fold on the host
  // in device order.  Every wave then verifies sum(y) == <c, x> up to
  // accumulation roundoff.
  const bool sdc_on = cfg.sdc.enabled;
  const auto un = static_cast<usize>(n);
  std::vector<real> abft_colsum;
  if (sdc_on) {
    obs::AttrSiteScope abft_site("sdc.checksum");
    abft_colsum.assign(un, 0);
    std::vector<real> partial(un);
    for (usize d = 0; d < P; ++d) {
      const sparse::DeviceCsrShard& sh = op.shards[d];
      device::DeviceContext& ctx = group.device(d);
      device::DeviceBuffer<real> dev_colsum(ctx, un);
      const real* vals = sh.local.values.data();
      const index_t* rp = sh.local.row_ptr.data();
      const index_t* ci = sh.local.col_idx.data();
      real* c = dev_colsum.data();
      const index_t rows = sh.rows();
      const auto nnz_d = static_cast<double>(sh.local.nnz());
      device::launch(
          ctx, 1,
          [=](index_t) {
            for (index_t j = 0; j < n; ++j) c[j] = 0;
            for (index_t r = 0; r < rows; ++r) {
              for (index_t e = rp[r]; e < rp[r + 1]; ++e) {
                c[ci[e]] += vals[e];
              }
            }
          },
          device::tagged("sdc.checksum", 2.0 * nnz_d, 12.0 * nnz_d,
                         8.0 * static_cast<double>(n)));
      dev_colsum.copy_to_host(std::span<real>(partial));  // D2H, metered
      for (usize j = 0; j < un; ++j) abft_colsum[j] += partial[j];
    }
  }
  // Corruption-at-rest injection point for the matrix payload: *after* the
  // checksum build, so the colsums describe the values as computed and a
  // flipped stored bit is a detectable divergence.
  for (sparse::DeviceCsrShard& sh : op.shards) {
    fault::corrupt_scalars("bitflip.csr.values", sh.local.values.data(),
                           static_cast<usize>(sh.local.nnz()));
  }
  const double eps64 = std::numeric_limits<double>::epsilon() / 2;

  // Seal on every device's staged x segment: the device-buffer bitflip
  // site, then (when enabled) a CRC frame — the device copy is re-hashed by
  // a device kernel and compared byte-for-byte against the host source, so
  // a flipped device bit is caught before any kernel consumes it.  A
  // mismatch throws *transient* and the retry re-runs the idempotent upload.
  sparse::StageCheck seal;
  seal.site = sdc_on ? "sdc.h2d" : nullptr;
  seal.check = [&](usize d, real* dev, const real* host, usize count) {
    fault::corrupt_scalars("bitflip.device.buffer", dev, count);
    if (!sdc_on) return;
    const usize bytes = count * sizeof(real);
    std::uint32_t dev_crc = 0;
    {
      obs::AttrSiteScope crc_site("sdc.crc");
      std::uint32_t* out = &dev_crc;
      const real* staged = dev;
      device::launch(
          group.device(d), 1,
          [=](index_t) { *out = crc32c(staged, bytes); },
          device::tagged("sdc.crc", static_cast<double>(bytes) / 8.0,
                         static_cast<double>(bytes), 4.0));
    }
    obs::sdc_note_check();
    ++result.integrity.checks;
    if (dev_crc != crc32c(host, bytes)) {
      obs::sdc_note_detected("device.buffer",
                             "staged x CRC mismatch after H2D");
      ++result.integrity.detected;
      result.integrity.events.push_back(
          "device.buffer: staged x CRC mismatch (re-uploading)");
      throw device::DataIntegrityError(
          "staged x buffer CRC mismatch after H2D", /*transient=*/true);
    }
  };

  const usize nnz = static_cast<usize>(op.nnz);
  const EigWave wave = [&](const real* x, real* y, index_t basis) {
    // ABFT verify loop: one in-place recompute on a mismatch (a one-shot
    // upset is gone the second time), then escalate as a permanent
    // DataIntegrityError into the degradation ladder.
    for (int attempt = 0;; ++attempt) {
      {
        obs::ScopedSpan span("spmv", "wave");
        sparse::sharded_csrmv(op, x, y, &seal);
      }
      // In-flight basis corruption: the product on its way back into the
      // host-side recurrence.
      fault::corrupt_scalars("bitflip.basis.column", y, un);
      if (!sdc_on) break;
      obs::sdc_note_check();
      ++result.integrity.checks;
      double cx = 0;
      double ysum = 0;
      double ynorm1 = 0;
      for (usize i = 0; i < un; ++i) {
        cx += static_cast<double>(abft_colsum[i]) * x[i];
        ysum += y[i];
        ynorm1 += std::abs(static_cast<double>(y[i]));
      }
      const double tol =
          eps64 * 64 *
              std::sqrt(static_cast<double>(nnz) + static_cast<double>(un)) *
              (std::abs(cx) + ynorm1) +
          1e-300;
      // A non-finite y fails outright: its tolerance would be infinite too.
      if (std::isfinite(ynorm1) && std::abs(ysum - cx) <= tol) break;
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
    meter_cgs2_wave(group, part, basis);
  };
  run_rci(cfg, n, wave, norm.inv_sqrt_degree, result);
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

/// Eigensolver degradation ladder, the same for every device count:
/// device -> (integrity failures) rebuilt device state -> host backend.  A
/// larger group hands a failure its device rungs could not absorb to the
/// caller's single-device rerun instead of the host rung.
void eigensolve_ladder(device::DeviceGroup& group, SimilaritySource& src,
                       const sparse::RowPartition& part,
                       const SpectralConfig& cfg, SpectralResult& result) {
  const DegradationPolicy& pol = cfg.degradation;
  std::exception_ptr last_error;
  std::string reason;
  bool integrity = false;
  try {
    eigensolve_group(group, src, part, cfg, result);
    return;
  } catch (const device::DeviceError& e) {
    if (!pol.enabled) throw;
    last_error = std::current_exception();
    reason = e.what();
    integrity = dynamic_cast<const device::DataIntegrityError*>(&e) != nullptr;
  }
  // Recompute-from-source rung for integrity failures: it rebuilds every
  // device-resident payload (normalized CSR, checksums) from the unmodified
  // similarity matrix, which clears at-rest corruption.
  if (pol.allow_sync_fallback && integrity) {
    note_degradation(result, kStageEigensolver, "device-sync", reason);
    reset_eig_result(result);
    try {
      // Ladder-rung site: the retried solve's device work lands in its own
      // bucket so a degraded run is visible in the attribution table.
      obs::AttrSiteScope rung_site("fallback.device_sync");
      eigensolve_group(group, src, part, cfg, result);
      return;
    } catch (const device::DeviceError& e) {
      last_error = std::current_exception();
      reason = e.what();
    }
  }
  if (!pol.allow_host_fallback || group.size() > 1) {
    std::rethrow_exception(last_error);
  }
  note_degradation(result, kStageEigensolver, "host-eigensolver", reason);
  reset_eig_result(result);
  SpectralConfig host_cfg = cfg;
  host_cfg.backend = Backend::kMatlabLike;
  obs::AttrSiteScope rung_site("fallback.host_eigensolver");
  eigensolve_host(src.host_w(), host_cfg, result);
}

/// Step 3, the eigensolver stage over `group`: the host backends solve on
/// the host; the device backend walks its ladder.  Either reruns to
/// completion under wrap-up when a deadline fires before partial Ritz pairs
/// exist.  Returns the row cuts the k-means stage shards its points by.
sparse::RowPartition eigensolver_stage(device::DeviceGroup& group,
                                       SimilaritySource& src,
                                       const SpectralConfig& cfg,
                                       SpectralResult& result) {
  sparse::RowPartition part = sparse::whole_partition(result.n);
  run_stage(result, kStageEigensolver, "stage.eigensolver", [&] {
    if (cfg.backend == Backend::kDevice) {
      part = eig_partition(group, src, result.n, cfg);
    }
    run_to_completion([&] {
      reset_eig_result(result);
      if (cfg.backend != Backend::kDevice) {
        eigensolve_host(src.host_w(), cfg, result);
      } else {
        eigensolve_ladder(group, src, part, cfg, result);
      }
    });
  });
  return part;
}

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
      kc.record_inertia = cfg.record_kmeans_inertia;
      kc.abft = cfg.sdc.enabled && cfg.sdc.abft_kmeans;
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

/// Step 4: cluster the rows of result.embedding, with device i of `group`
/// owning rows [cuts[i], cuts[i+1]) (cuts on kmeans::kBlockRows
/// boundaries).  Owns input validation, the optional NJW row normalization
/// (applied to result.embedding once), the device ladder (integrity
/// failure -> rebuilt device run -> host Lloyd) and the anytime rerun.
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
  run_to_completion([&] { kmeans_stage_run(group, cuts, cfg, result); });
}

/// The run skeleton both entry points share: trace and fault scopes, the
/// device counter delta and the budget report around `body`.  A non-empty
/// `single_device_reason` records the multi-device failure this run
/// replaces.
template <class Body>
SpectralResult run_pipeline(const SpectralConfig& config, index_t n,
                            device::DeviceGroup& group,
                            const std::string& single_device_reason,
                            Body&& body) {
  // Snapshots under the meter mutex: with fastsc::Service, other jobs may
  // be metering the same devices concurrently.
  const device::DeviceCounters counters_before = group.rollup_counters();
  const obs::TraceEnableScope trace_scope(config.trace);
  std::optional<fault::ArmScope> fault_scope;
  if (!config.faults.empty()) fault_scope.emplace(config.faults);

  SpectralResult result;
  result.n = n;
  result.k = config.num_clusters;
  if (!single_device_reason.empty()) {
    note_degradation(result, kStageEigensolver, "single-device",
                     single_device_reason);
  }
  body(result);
  if (cancel::Governor& gov = cancel::current_governor(); gov.armed()) {
    result.budget = gov.report();
  }
  result.device_counters = device::counters_delta(group.rollup_counters(),
                                                  counters_before);
  return result;
}

/// Run `run(group, reason)` over config.num_devices devices: the caller's
/// context and its peers.  A permanent device error on more than one
/// device reruns the whole pipeline on the caller's context alone
/// (degradation action "single-device").  The cancellation governor is
/// armed once around both attempts, so the rerun keeps the deadline's
/// elapsed time and a deadline that already fired.  Plain runs (no
/// deadline, no token) never arm it, so every poll site stays on its
/// single-relaxed-load fast path.
template <class Run>
SpectralResult on_devices(const SpectralConfig& config,
                          device::DeviceContext& ctx, Run&& run) {
  std::optional<cancel::RunScope> cancel_scope;
  if (config.budget.enabled() || config.cancel_token.valid()) {
    cancel_scope.emplace(config.budget, config.cancel_token);
  }
  std::string reason;
  if (config.backend == Backend::kDevice && config.num_devices > 1) {
    device::DeviceGroup group(ctx, static_cast<usize>(config.num_devices));
    try {
      return run(group, reason);
    } catch (const device::DeviceError& e) {
      if (!config.degradation.enabled) throw;
      reason = e.what();
    }
  }
  device::DeviceGroup group(ctx);
  return run(group, reason);
}

/// Steps 1-4 on `group`, with Algorithm 1 on device 0.
SpectralResult cluster_points_on(device::DeviceGroup& group, const real* x,
                                 index_t n, index_t d,
                                 const graph::EdgeList& sym,
                                 const SpectralConfig& config,
                                 const std::string& reason) {
  device::DeviceContext& ctx = group.root();
  const auto body = [&](SpectralResult& result) {
    SimilaritySource src(ctx);
    const auto build_on_host = [&] {
      src.host_storage =
          baseline::similarity_loop(x, n, d, sym, config.similarity);
      src.host = &src.host_storage;
    };
    const auto build = [&] {
      // A rerun under wrap-up starts from an empty source.
      src.host = nullptr;
      src.host_storage = sparse::Coo{};
      src.dev.reset();
      if (config.backend != Backend::kDevice) return build_on_host();
      const DegradationPolicy& pol = config.degradation;
      try {
        if (config.similarity_chunk_edges > 0) {
          // Out-of-core Algorithm 1: the edge list streams through the
          // device.
          src.host_storage = graph::build_similarity_device_chunked(
              ctx, x, n, d, sym, config.similarity,
              config.similarity_chunk_edges);
          src.host = &src.host_storage;
          src.dev.emplace(ctx, src.host_storage);
        } else {
          src.dev.emplace(graph::build_similarity_device(
              ctx, x, n, d, sym, config.similarity));
        }
      } catch (const device::DeviceError& e) {
        if (!pol.enabled || !pol.allow_host_fallback) throw;
        note_degradation(result, kStageSimilarity, "host-similarity",
                         e.what());
        src.dev.reset();
        obs::AttrSiteScope rung_site("fallback.host_similarity");
        build_on_host();
      }
    };
    run_stage(result, kStageSimilarity, "stage.similarity",
              [&] { run_to_completion(build); });
    const sparse::RowPartition part =
        eigensolver_stage(group, src, config, result);
    run_stage(result, kStageKmeans, "stage.kmeans",
              [&] { kmeans_stage(group, part.cuts, config, result); });
  };
  return run_pipeline(config, n, group, reason, body);
}

/// Steps 2-4 of the graph `w` on `group`.
SpectralResult cluster_graph_on(device::DeviceGroup& group,
                                const sparse::Coo& w,
                                const SpectralConfig& config,
                                const std::string& reason) {
  const auto body = [&](SpectralResult& result) {
    // The graph upload is part of the eigensolver stage (the paper's
    // accounting for the graph datasets), and lazy, so a degraded run that
    // never touches the device skips it.
    SimilaritySource src(group.root(), &w);
    const sparse::RowPartition part =
        eigensolver_stage(group, src, config, result);
    run_stage(result, kStageKmeans, "stage.kmeans",
              [&] { kmeans_stage(group, part.cuts, config, result); });
  };
  return run_pipeline(config, w.rows, group, reason, body);
}

void check_graph_input(const sparse::Coo& w, const SpectralConfig& config) {
  FASTSC_CHECK(w.rows == w.cols, "graph matrix must be square");
  FASTSC_CHECK(config.num_clusters >= 1 && config.num_clusters <= w.rows,
               "cluster count must be in [1, n]");
  if (config.validate_inputs) {
    check_finite(w.values, "similarity matrix values");
    check_index_range(w.row_idx, w.rows, "similarity matrix row");
    check_index_range(w.col_idx, w.cols, "similarity matrix column");
  }
  // A disconnected graph makes the eigenvalue 1 of D^-1 W degenerate (one
  // copy per component), which a Krylov iteration from a single start
  // vector resolves slowly and unreliably.  Warn so callers can split
  // components (graph::largest_component) or reconnect weakly.
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

device::DeviceContext& resolve_ctx(device::DeviceContext* ctx) {
  return ctx != nullptr ? *ctx : device::default_device();
}

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
  const graph::EdgeList sym = graph::symmetrized(edges);
  return on_devices(config, resolve_ctx(ctx_in),
                    [&](device::DeviceGroup& group, const std::string& why) {
                      return cluster_points_on(group, x, n, d, sym, config,
                                               why);
                    });
}

SpectralResult spectral_cluster_graph(const sparse::Coo& w,
                                      const SpectralConfig& config,
                                      device::DeviceContext* ctx_in) {
  check_graph_input(w, config);
  return on_devices(config, resolve_ctx(ctx_in),
                    [&](device::DeviceGroup& group, const std::string& why) {
                      return cluster_graph_on(group, w, config, why);
                    });
}

}  // namespace fastsc::core
