#include "core/sharded.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/cancel.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/validation.h"
#include "core/pipeline_internal.h"
#include "graph/laplacian.h"
#include "kmeans/seeding.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/shard.h"

namespace fastsc::core {

namespace {

/// Row cuts are aligned to this block size, which is also the k-means
/// partial-reduction block: every 256-point block lies whole on one device,
/// so the root can fold block partials in ascending global block order no
/// matter how many devices produced them (the determinism contract).
constexpr index_t kKmeansBlock = 256;

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
    group.device(d).record_kernel(
        0.0, group.modeled_kernel_seconds(cost.bytes_read + cost.bytes_written),
        cost);
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
/// with the (block-aligned) row partition so the k-means stage shards its
/// points identically.
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
        row_ptr.data(), n, static_cast<index_t>(group.size()), kKmeansBlock,
        ncv_eff);
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

/// Empty-cluster repair (identical rule to kmeans.cpp): re-seed each empty
/// centroid at the point currently farthest from its assigned centroid,
/// scanning the globally-ordered min-distance vector — the same winner for
/// any device count.
void repair_empty_clusters(std::vector<real>& centroids,
                           const std::vector<index_t>& counts, const real* v,
                           std::vector<real> min_dist, index_t n, index_t d) {
  const auto k = static_cast<index_t>(counts.size());
  for (index_t c = 0; c < k; ++c) {
    if (counts[static_cast<usize>(c)] != 0) continue;
    index_t far = 0;
    real best = -1;
    for (index_t j = 0; j < n; ++j) {
      if (min_dist[static_cast<usize>(j)] > best) {
        best = min_dist[static_cast<usize>(j)];
        far = j;
      }
    }
    std::copy(v + far * d, v + (far + 1) * d, centroids.begin() + c * d);
    min_dist[static_cast<usize>(far)] = -1;  // don't reuse for another empty
  }
}

/// Per-device k-means state: the local point block plus the sweep buffers.
struct KmeansShard {
  index_t row_begin = 0;
  index_t row_end = 0;
  index_t blocks = 0;
  device::DeviceBuffer<real> v;         ///< local points, n_local x d
  device::DeviceBuffer<real> cent;      ///< centroid replica, k x d
  device::DeviceBuffer<index_t> cur;    ///< labels after the last sweep
  device::DeviceBuffer<index_t> next;   ///< labels being assigned
  device::DeviceBuffer<real> min_dist;  ///< squared distance to own centroid
  device::DeviceBuffer<real> partials;  ///< blocks x stride reduction output

  [[nodiscard]] index_t rows() const noexcept { return row_end - row_begin; }
};

/// Sharded Lloyd iterations over the embedding rows, reusing the
/// eigensolver's block-aligned row partition.  Per sweep: the centroids
/// broadcast root -> peers over the D2D link, every device assigns its
/// points and reduces fixed 256-point blocks to partial (sum, count,
/// changed, inertia) records, and the root folds all blocks in ascending
/// global order — bitwise the same update for every device count.
void kmeans_sharded(device::DeviceGroup& group,
                    const sparse::RowPartition& part,
                    const SpectralConfig& cfg, SpectralResult& result) {
  const index_t n = result.n;
  const index_t k = cfg.num_clusters;
  const index_t d = result.k;  // embedding width
  const real* v = result.embedding.data();
  obs::AttrSiteScope attr_site("kmeans.lloyd");

  // k-means precision rung (DESIGN.md §13): quantize the embedding up front
  // — the same point kmeans_device quantizes at — so host seeding, repair,
  // and every device see identical values and labels stay byte-identical
  // across device counts.
  const Precision km_p = cfg.precision.resolve(PrecisionStage::kKmeans);
  const bool km_narrow = km_p != Precision::kFp64;
  std::vector<real> vquant;
  if (km_narrow) {
    vquant.resize(result.embedding.size());
    for (usize i = 0; i < vquant.size(); ++i) {
      vquant[i] = quantize(result.embedding[i], km_p);
    }
    v = vquant.data();
  }

  // Seeding on the host from the full embedding — trivially independent of
  // the device count (same draws as the host Lloyd baseline).
  Rng rng(cfg.seed);
  const std::vector<index_t> seed_rows =
      cfg.seeding == kmeans::Seeding::kKmeansPlusPlus
          ? kmeans::kmeanspp_seeds_host(v, n, d, k, rng)
          : kmeans::random_seeds_host(n, k, rng);
  std::vector<real> centroids(static_cast<usize>(k) * static_cast<usize>(d));
  for (index_t c = 0; c < k; ++c) {
    std::copy(v + seed_rows[static_cast<usize>(c)] * d,
              v + (seed_rows[static_cast<usize>(c)] + 1) * d,
              centroids.begin() + c * d);
  }

  // Partial record per block: k*d centroid sums, k counts, changed, inertia.
  const usize stride = static_cast<usize>(k) * static_cast<usize>(d) +
                       static_cast<usize>(k) + 2;
  const auto ndev = static_cast<index_t>(group.size());
  std::vector<KmeansShard> shards(static_cast<usize>(ndev));
  for (index_t dev = 0; dev < ndev; ++dev) {
    device::DeviceContext& ctx = group.device(static_cast<usize>(dev));
    KmeansShard& sh = shards[static_cast<usize>(dev)];
    sh.row_begin = part.begin(dev);
    sh.row_end = part.end(dev);
    const index_t nl = sh.rows();
    sh.blocks = (nl + kKmeansBlock - 1) / kKmeansBlock;
    if (!km_narrow) {
      sh.v = device::DeviceBuffer<real>(
          ctx, std::span<const real>(v + sh.row_begin * d,
                                     static_cast<usize>(nl) *
                                         static_cast<usize>(d)));
    } else {
      // Narrow uplink: the local block crosses the link packed at the rung's
      // width, then widens into the fp64 working copy on the device (the
      // values are already quantized, so widening is exact).
      const usize wb = bytes_per_scalar(km_p);
      const usize cnt = static_cast<usize>(nl) * static_cast<usize>(d);
      std::vector<unsigned char> packed(cnt * wb);
      pack_scalars(v + sh.row_begin * d, cnt, km_p, packed.data());
      const device::DeviceBuffer<unsigned char> staged(
          ctx, std::span<const unsigned char>(packed));
      sh.v = device::DeviceBuffer<real>(ctx, cnt);
      const ConstVecView pv(staged.data(), km_p);
      real* vp = sh.v.data();
      const double c = static_cast<double>(cnt);
      device::LaunchConfig widen_cfg = device::tagged(
          "precision.stage", c, c * static_cast<double>(wb), c * sizeof(real));
      widen_cfg.bytes_per_scalar = static_cast<double>(wb);
      widen_cfg.modeled_seconds = group.modeled_kernel_seconds(
          widen_cfg.bytes_read + widen_cfg.bytes_written);
      device::launch(ctx, static_cast<index_t>(cnt),
                     [=](index_t i) { vp[i] = pv.load(static_cast<usize>(i)); },
                     widen_cfg);
    }
    sh.cent = device::DeviceBuffer<real>(ctx, centroids.size());
    sh.cur = device::DeviceBuffer<index_t>(ctx, static_cast<usize>(nl));
    sh.next = device::DeviceBuffer<index_t>(ctx, static_cast<usize>(nl));
    sh.min_dist = device::DeviceBuffer<real>(ctx, static_cast<usize>(nl));
    sh.partials = device::DeviceBuffer<real>(
        ctx, static_cast<usize>(sh.blocks) * stride);
    // Labels start at the invalid value k so the first sweep counts every
    // point as changed (matching a cold host Lloyd run).
    index_t* cur = sh.cur.data();
    device::launch(
        ctx, nl, [cur, k](index_t i) { cur[i] = k; },
        device::tagged("kmeans.init"));
  }

  std::vector<real> host_partials;
  std::vector<real> sums(centroids.size());
  std::vector<index_t> counts(static_cast<usize>(k));
  bool converged = false;
  index_t iterations = 0;

  for (index_t sweep = 0; sweep < cfg.kmeans_max_iters; ++sweep) {
    cancel::poll("kmeans.sweep");

    // Centroid broadcast: host -> root over the PCIe link, root -> peers
    // over the D2D link.
    shards[0].cent.copy_from_host(std::span<const real>(centroids));
    for (index_t e = 1; e < ndev; ++e) {
      group.copy_peer(0, static_cast<usize>(e), shards[0].cent.data(),
                      shards[static_cast<usize>(e)].cent.data(),
                      centroids.size(), "d2d.centroid_bcast");
    }

    // Assignment + block reduction on every device.
    for (index_t dev = 0; dev < ndev; ++dev) {
      device::DeviceContext& ctx = group.device(static_cast<usize>(dev));
      KmeansShard& sh = shards[static_cast<usize>(dev)];
      const index_t nl = sh.rows();
      const real* pv = sh.v.data();
      const real* cent = sh.cent.data();
      index_t* next = sh.next.data();
      const index_t* cur = sh.cur.data();
      real* min_dist = sh.min_dist.data();
      real* partials = sh.partials.data();

      device::LaunchConfig assign_cfg = device::tagged(
          "kmeans.assign",
          3.0 * static_cast<double>(nl) * static_cast<double>(k) *
              static_cast<double>(d),
          static_cast<double>(nl) * static_cast<double>(d + k * d) *
              sizeof(real),
          static_cast<double>(nl) * 2.0 * sizeof(real));
      assign_cfg.modeled_seconds = group.modeled_kernel_seconds(
          assign_cfg.bytes_read + assign_cfg.bytes_written);
      device::launch(
          ctx, nl,
          [pv, cent, next, min_dist, k, d](index_t i) {
            const real* row = pv + i * d;
            index_t best = 0;
            real best_val = 0;
            for (index_t c = 0; c < k; ++c) {
              real dist = 0;
              const real* cc = cent + c * d;
              for (index_t l = 0; l < d; ++l) {
                const real diff = row[l] - cc[l];
                dist += diff * diff;
              }
              if (c == 0 || dist < best_val) {
                best_val = dist;
                best = c;
              }
            }
            next[i] = best;
            min_dist[i] = best_val;
          },
          assign_cfg);

      device::LaunchConfig reduce_cfg = device::tagged(
          "kmeans.block_reduce",
          static_cast<double>(nl) * static_cast<double>(d + 2),
          static_cast<double>(nl) *
              (static_cast<double>(d) * sizeof(real) + 2.0 * sizeof(index_t)),
          static_cast<double>(sh.blocks) * static_cast<double>(stride) *
              sizeof(real));
      reduce_cfg.modeled_seconds = group.modeled_kernel_seconds(
          reduce_cfg.bytes_read + reduce_cfg.bytes_written);
      const usize block_stride = stride;
      device::launch(
          ctx, sh.blocks,
          [pv, next, cur, min_dist, partials, nl, k, d,
           block_stride](index_t b) {
            real* rec = partials + static_cast<usize>(b) * block_stride;
            for (usize s = 0; s < block_stride; ++s) rec[s] = 0;
            real* rsums = rec;
            real* rcounts = rec + k * d;
            real& rchanged = rec[block_stride - 2];
            real& rinertia = rec[block_stride - 1];
            const index_t i0 = b * kKmeansBlock;
            const index_t i1 = std::min(nl, i0 + kKmeansBlock);
            for (index_t i = i0; i < i1; ++i) {
              const index_t lab = next[i];
              const real* row = pv + i * d;
              for (index_t l = 0; l < d; ++l) rsums[lab * d + l] += row[l];
              rcounts[lab] += 1;
              if (next[i] != cur[i]) rchanged += 1;
              rinertia += min_dist[i];
            }
          },
          reduce_cfg);
    }

    // Fold on the root in ascending global block order (devices are in row
    // order, blocks within a device are in row order).  Partials download
    // over each device's own link, then ship to the root on the D2D link.
    std::fill(sums.begin(), sums.end(), real{0});
    std::fill(counts.begin(), counts.end(), index_t{0});
    index_t changed = 0;
    real inertia = 0;
    for (index_t dev = 0; dev < ndev; ++dev) {
      KmeansShard& sh = shards[static_cast<usize>(dev)];
      if (sh.blocks == 0) continue;
      host_partials.resize(static_cast<usize>(sh.blocks) * stride);
      sh.partials.copy_to_host(std::span<real>(host_partials));
      if (dev != 0) {
        group.model_peer_transfer(static_cast<usize>(dev), 0,
                                  host_partials.size() * sizeof(real),
                                  "d2d.centroid_reduce");
      }
      for (index_t b = 0; b < sh.blocks; ++b) {
        const real* rec = host_partials.data() + static_cast<usize>(b) * stride;
        for (usize s = 0; s < sums.size(); ++s) sums[s] += rec[s];
        for (index_t c = 0; c < k; ++c) {
          counts[static_cast<usize>(c)] +=
              static_cast<index_t>(rec[static_cast<usize>(k * d + c)]);
        }
        changed += static_cast<index_t>(rec[stride - 2]);
        inertia += rec[stride - 1];
      }
    }

    iterations = sweep + 1;
    if (cfg.record_kmeans_inertia || obs::trace_enabled()) {
      result.kmeans_inertia_history.push_back(inertia);
      if (obs::trace_enabled()) {
        const double now = obs::wall_now_us();
        obs::trace().counter("kmeans.inertia", inertia, now);
        obs::trace().counter("kmeans.changed", static_cast<double>(changed),
                             now);
      }
    }

    // Labels for the next sweep are this sweep's assignment.
    for (index_t dev = 0; dev < ndev; ++dev) {
      shards[static_cast<usize>(dev)].cur.swap(
          shards[static_cast<usize>(dev)].next);
    }
    if (changed == 0) {
      converged = true;
      break;
    }

    for (index_t c = 0; c < k; ++c) {
      const index_t cnt = counts[static_cast<usize>(c)];
      if (cnt == 0) continue;  // repaired below
      const real inv = real{1} / static_cast<real>(cnt);
      for (index_t l = 0; l < d; ++l) {
        centroids[static_cast<usize>(c * d + l)] =
            sums[static_cast<usize>(c * d + l)] * inv;
      }
    }
    if (std::any_of(counts.begin(), counts.end(),
                    [](index_t c) { return c == 0; })) {
      // Rare path: gather the globally-ordered min-distance vector and
      // re-seed the empty centroids from the full embedding.
      std::vector<real> min_dist(static_cast<usize>(n));
      for (index_t dev = 0; dev < ndev; ++dev) {
        KmeansShard& sh = shards[static_cast<usize>(dev)];
        if (sh.rows() == 0) continue;
        sh.min_dist.copy_to_host(std::span<real>(
            min_dist.data() + sh.row_begin, static_cast<usize>(sh.rows())));
        if (dev != 0) {
          group.model_peer_transfer(
              static_cast<usize>(dev), 0,
              static_cast<usize>(sh.rows()) * sizeof(real),
              "d2d.centroid_reduce");
        }
      }
      repair_empty_clusters(centroids, counts, v, std::move(min_dist), n, d);
    }
  }

  result.labels.resize(static_cast<usize>(n));
  for (index_t dev = 0; dev < ndev; ++dev) {
    KmeansShard& sh = shards[static_cast<usize>(dev)];
    if (sh.rows() == 0) continue;
    sh.cur.copy_to_host(std::span<index_t>(
        result.labels.data() + sh.row_begin, static_cast<usize>(sh.rows())));
  }
  result.kmeans_converged = converged;
  result.kmeans_iterations = iterations;
}

/// Anytime wrapper matching core/spectral.cpp's kmeans_stage: a deadline
/// firing mid-sweep enters wrap-up and reruns the stage to completion.
void kmeans_stage_sharded(device::DeviceGroup& group,
                          const sparse::RowPartition& part,
                          const SpectralConfig& cfg, SpectralResult& result) {
  if (cfg.validate_inputs) {
    check_finite(result.embedding, "spectral embedding (k-means input)");
  }
  try {
    kmeans_sharded(group, part, cfg, result);
  } catch (const cancel::CancelledError& e) {
    cancel::Governor& gov = cancel::current_governor();
    if (!gov.anytime_allowed()) throw;
    gov.begin_wrapup(e.site().empty() ? e.what() : e.site());
    kmeans_sharded(group, part, cfg, result);
  }
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
    kmeans_stage_sharded(group, part, config, result);
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
