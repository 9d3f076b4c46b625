#include "core/sharded.h"

#include <algorithm>
#include <optional>

#include "common/cancel.h"
#include "common/error.h"
#include "common/validation.h"
#include "core/pipeline_internal.h"
#include "graph/laplacian.h"
#include "kmeans/kmeans.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/shard.h"

namespace fastsc::core {

namespace {

/// Meter one wave of sharded CGS2 reorthogonalization: each device runs the
/// partial GEMV pair over its local rows against the j-vector basis (twice —
/// "twice is enough"), then the j+1 coefficient vector allreduces through
/// the root.  The arithmetic itself stays in the host solver (bitwise
/// identical to the single-device run); this charges where the flops and
/// wire traffic would land on a real multi-GPU eigensolver.
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
  // star serializing 2(P-1) message latencies on the root's link, which
  // would cap the modeled speedup curve well below linear.
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

/// Sharded eigensolver stage: cut the row partition from the COO histogram,
/// normalize every row block on its own device (distributed Algorithm 2),
/// and drive the shared RCI loop with sharded SpMV waves.  Fills `part_out`
/// with the row partition, cut on k-means block boundaries so the k-means
/// stage shards its points identically.
void eigensolve_sharded(device::DeviceGroup& group, const sparse::Coo& w,
                        const SpectralConfig& cfg, SpectralResult& result,
                        sparse::RowPartition& part_out) {
  const index_t n = w.rows;
  const PrecisionPolicy& pp = cfg.precision;
  const Precision spmv_p = pp.resolve(PrecisionStage::kSpmv);
  const Precision basis_p = pp.resolve(PrecisionStage::kBasis);
  const bool fused = pp.fused();

  sparse::RowPartition part;
  {
    // The row cut comes from the COO row histogram — normalization keeps
    // the structure, so this equals the final CSR's row_ptr.
    std::vector<index_t> row_ptr(static_cast<usize>(n) + 1, 0);
    for (const index_t r : w.row_idx) ++row_ptr[static_cast<usize>(r) + 1];
    for (index_t r = 0; r < n; ++r) {
      row_ptr[static_cast<usize>(r) + 1] += row_ptr[static_cast<usize>(r)];
    }
    // Per row and wave the dense stages read ~4 * ncv doubles (the CGS2
    // sweeps dominate; k-means assignment and the PCIe x/y staging scale
    // the same way) against ~20 bytes per CSR entry for the SpMV, so a row
    // weighs roughly ncv entries.  Weighting the merge path accordingly
    // balances rows and entries together instead of entries alone — an
    // nnz-only cut hands the sparsest shard the most dense-stage work.
    const index_t ncv_eff =
        cfg.ncv > 0
            ? cfg.ncv
            : std::min(n, std::max<index_t>(2 * cfg.num_clusters + 1, 20));
    part = sparse::make_row_partition(
        row_ptr.data(), n, static_cast<index_t>(group.size()),
        kmeans::kBlockRows, ncv_eff);
  }

  graph::NormalizeOptions nopts;
  nopts.fuse_scale = fused;
  graph::ShardedNormalized norm =
      graph::sym_normalized_sharded(group, w, part, nopts);
  const std::vector<real> isd = std::move(norm.inv_sqrt_degree);
  sparse::ShardedCsr sp = sparse::shard_device_locals(
      group, part, std::move(norm.locals), norm.structure);
  if (fused) {
    sparse::set_sharded_fused_scale(sp, std::move(norm.isd_replicas));
  }
  if (spmv_p != Precision::kFp64) sparse::demote_sharded_values(sp, spmv_p);
  if (basis_p != Precision::kFp64) {
    sparse::set_sharded_stage_precision(sp, basis_p);
  }
  part_out = sp.part;

  const detail::EigWave wave = [&](const real* x, real* y, index_t basis) {
    {
      obs::ScopedSpan span("spmv", "wave");
      sparse::sharded_csrmv(sp, x, y);
    }
    meter_cgs2_wave(group, sp.part, basis);
  };
  // The refinement runs against `w` in its original COO entry order, like
  // the single-device path, so labels stay byte-identical across device
  // counts at every rung.
  detail::run_rci(cfg, n, wave, w, isd, result);
}

}  // namespace

SpectralResult spectral_cluster_graph_sharded(const sparse::Coo& w,
                                              const SpectralConfig& config,
                                              device::DeviceGroup& group) {
  FASTSC_CHECK(w.rows == w.cols, "graph matrix must be square");
  FASTSC_CHECK(config.num_clusters >= 1 && config.num_clusters <= w.rows,
               "cluster count must be in [1, n]");
  FASTSC_CHECK(config.backend == Backend::kDevice,
               "the sharded pipeline requires the device backend");
  if (config.validate_inputs) {
    check_finite(w.values, "similarity matrix values");
    check_index_range(w.row_idx, w.rows, "similarity matrix row");
    check_index_range(w.col_idx, w.cols, "similarity matrix column");
  }
  const device::DeviceCounters counters_before = group.rollup_counters();
  const obs::TraceEnableScope trace_scope(config.trace);
  std::optional<fault::ArmScope> fault_scope;
  if (!config.faults.empty()) fault_scope.emplace(config.faults);
  std::optional<cancel::RunScope> cancel_scope;
  {
    const cancel::RunBudget& budget =
        config.budget.enabled() ? config.budget : cancel::env_budget();
    if (budget.enabled() || config.watchdog.enabled() ||
        config.cancel_token.valid()) {
      // Virtual-now for the group is the sum of every device's deterministic
      // transfer timeline (PCIe and D2D legs both count).
      cancel_scope.emplace(budget, config.watchdog, config.cancel_token,
                           [&group] {
                             return group.modeled_transfer_seconds_now();
                           });
    }
  }

  SpectralResult result;
  result.n = w.rows;
  result.k = config.num_clusters;

  sparse::RowPartition part;
  result.clock.start(kStageEigensolver);
  {
    obs::ScopedSpan span(kStageEigensolver, "stage");
    cancel::StageScope budget_scope(kStageEigensolver);
    obs::AttrSiteScope stage_site("stage.eigensolver");
    detail::solve_with_precision_fallback(
        config, result, [&](const SpectralConfig& c) {
          eigensolve_sharded(group, w, c, result, part);
        });
  }
  result.clock.stop();

  result.clock.start(kStageKmeans);
  {
    obs::ScopedSpan span(kStageKmeans, "stage");
    cancel::StageScope budget_scope(kStageKmeans);
    obs::AttrSiteScope stage_site("stage.kmeans");
    detail::kmeans_stage(group, part.cuts, config, result);
  }
  result.clock.stop();

  if (cancel::Governor& gov = cancel::current_governor(); gov.armed()) {
    result.budget = gov.report();
  }
  result.device_counters =
      device::counters_delta(group.rollup_counters(), counters_before);
  return result;
}

}  // namespace fastsc::core
