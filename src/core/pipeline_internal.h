// Pipeline-internal helpers shared by the single-device driver
// (core/spectral.cpp) and the multi-device sharded driver (core/sharded.cpp).
// Not part of the public API.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/spectral.h"
#include "device/device_group.h"
#include "obs/attribution.h"

namespace fastsc::core::detail {

/// Record one degradation decision: result report + degrade.* counters +
/// trace counter + a WARN so unattended runs leave an audit trail.
void note_degradation(SpectralResult& result, const char* stage,
                      const char* action, const std::string& reason);

/// Clear the eigensolver outputs of an abandoned attempt before the next
/// ladder rung re-runs the stage (degradation events are kept).
void reset_eig_result(SpectralResult& result);

/// One reverse-communication wave (paper Algorithm 3): y = S x for the
/// solver's host vector x, written to host y (both length n).  `basis` is
/// the Lanczos basis size at this wave.  A wave reports detected corruption
/// by throwing device::DataIntegrityError.
using EigWave = std::function<void(const real* x, real* y, index_t basis)>;

/// The one RCI driver behind every device eigensolve, single-device and
/// sharded.  It owns the steps the waves share: the narrow-rung tolerance
/// clamp and warm start, checkpoint resume and anytime abandon, the
/// per-wave and Ritz-range sentinels, checkpoint export, Ritz extraction,
/// the fp64 refinement against `refine_w` (read only when an eigensolver
/// stage runs below fp64 or the fused epilogue is on) and the embedding
/// through `inv_sqrt_degree`.
void run_rci(const SpectralConfig& cfg, index_t n, const EigWave& wave,
             const sparse::Coo& refine_w,
             const std::vector<real>& inv_sqrt_degree, SpectralResult& result);

/// Step 4 behind every pipeline: cluster the rows of result.embedding, with
/// device i of `group` owning rows [cuts[i], cuts[i+1]) (cuts on
/// kmeans::kBlockRows boundaries).  Owns input validation, the optional NJW
/// row normalization (applied to result.embedding once), the device
/// ladder (integrity failure -> rebuilt device run -> host Lloyd) and the
/// anytime rerun: a deadline before the first full assignment enters
/// wrap-up and reruns the stage to completion.
void kmeans_stage(device::DeviceGroup& group, std::span<const index_t> cuts,
                  const SpectralConfig& cfg, SpectralResult& result);

/// Auto-precision rung (DESIGN.md §13) around any eigensolve: run
/// `solve(cfg)`; when the fp64 refinement residual of a narrow solve exceeds
/// the policy's limit, drop its outputs and re-run `solve` with every stage
/// forced to fp64 (degradation action "precision-fallback").
template <class Solve>
void solve_with_precision_fallback(const SpectralConfig& cfg,
                                   SpectralResult& result, Solve&& solve) {
  solve(cfg);
  const PrecisionPolicy& pp = cfg.precision;
  if (!pp.auto_ladder || result.refine_residual <= pp.refine_residual_limit) {
    return;
  }
  note_degradation(result, kStageEigensolver, "precision-fallback",
                   "fp64 refinement residual " +
                       std::to_string(result.refine_residual) +
                       " above limit " +
                       std::to_string(pp.refine_residual_limit) +
                       "; re-running the eigensolve at fp64");
  SpectralConfig fb_cfg = cfg;
  fb_cfg.precision = pp.fp64_fallback();
  reset_eig_result(result);
  obs::AttrSiteScope rung_site("fallback.precision_fp64");
  solve(fb_cfg);
}

}  // namespace fastsc::core::detail
