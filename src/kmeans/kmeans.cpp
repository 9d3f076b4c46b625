#include "kmeans/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "blas/dblas.h"
#include "common/cancel.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/validation.h"
#include "device/algorithms.h"
#include "fault/fault.h"
#include "kmeans/seeding.h"
#include "obs/attribution.h"
#include "obs/sdc.h"
#include "obs/trace.h"

namespace fastsc::kmeans {

namespace {

/// One device's share of the sweep: its point block plus the sweep buffers.
struct Shard {
  device::DeviceContext* ctx = nullptr;
  index_t row_begin = 0;
  index_t rows = 0;
  index_t blocks = 0;
  real vnorm_sum = 0;  ///< ABFT: sum of vnorm, fixed for the solve
  device::DeviceBuffer<real> v;         ///< local points, rows x d (fp64)
  device::DeviceBuffer<real> vnorm;     ///< ||v_i||^2 (Eq. 13)
  device::DeviceBuffer<real> cent;      ///< centroid replica, k x d
  device::DeviceBuffer<real> cnorm;     ///< ||c_j||^2 (Eq. 14)
  device::DeviceBuffer<real> s;         ///< distance block, rows x k
  device::DeviceBuffer<index_t> cur;    ///< labels after the last sweep
  device::DeviceBuffer<index_t> next;   ///< labels being assigned
  device::DeviceBuffer<real> min_dist;  ///< distance to the own centroid
  device::DeviceBuffer<real> partials;  ///< blocks x stride reduction output
  device::DeviceBuffer<real> colsum_v;  ///< ABFT: column sums of v
  device::DeviceBuffer<real> prod;      ///< ABFT: colsum(v) .* colsum(C)
};

/// Lloyd iterations over a device group.  Construction uploads every
/// device's point block once; run() clusters from one seed and can repeat
/// for restarts.
class GroupSweep {
 public:
  GroupSweep(device::DeviceGroup& group, std::span<const index_t> cuts,
             const real* v, index_t n, index_t d, const KmeansConfig& config)
      : group_(group), v_(v), n_(n), d_(d), k_(config.k), config_(config),
        // Partial record per block: k*d centroid sums, k counts, changed,
        // inertia.
        stride_(static_cast<usize>(k_) * static_cast<usize>(d_) +
                static_cast<usize>(k_) + 2),
        shards_(group.size()) {
    for (usize dev = 0; dev < shards_.size(); ++dev) {
      Shard& sh = shards_[dev];
      device::DeviceContext& ctx = group.device(dev);
      sh.ctx = &ctx;
      sh.row_begin = cuts[dev];
      sh.rows = cuts[dev + 1] - cuts[dev];
      sh.blocks = (sh.rows + kBlockRows - 1) / kBlockRows;
      const auto nl = static_cast<usize>(sh.rows);
      sh.v = device::DeviceBuffer<real>(
          ctx, std::span<const real>(v + sh.row_begin * d,
                                     nl * static_cast<usize>(d)));
      sh.vnorm = device::DeviceBuffer<real>(ctx, nl);
      sh.cent = device::DeviceBuffer<real>(
          ctx, static_cast<usize>(k_) * static_cast<usize>(d));
      sh.cnorm = device::DeviceBuffer<real>(ctx, static_cast<usize>(k_));
      sh.s = device::DeviceBuffer<real>(ctx, nl * static_cast<usize>(k_));
      sh.cur = device::DeviceBuffer<index_t>(ctx, nl);
      sh.next = device::DeviceBuffer<index_t>(ctx, nl);
      sh.min_dist = device::DeviceBuffer<real>(ctx, nl);
      sh.partials = device::DeviceBuffer<real>(
          ctx, static_cast<usize>(sh.blocks) * stride_);
      // V is fixed for the solve: its norms (Eq. 13) and, for the ABFT
      // identity, their sum and its column sums are computed once.
      dblas::row_squared_norms(ctx, sh.rows, d, sh.v.data(), d,
                               sh.vnorm.data());
      if (config.abft) {
        obs::AttrSiteScope abft_site("sdc.checksum");
        sh.vnorm_sum = device::reduce_sum(ctx, sh.vnorm.data(), sh.rows);
        sh.colsum_v = device::DeviceBuffer<real>(ctx, static_cast<usize>(d));
        sh.prod = device::DeviceBuffer<real>(ctx, static_cast<usize>(d));
        const real* vp = sh.v.data();
        real* csv = sh.colsum_v.data();
        const index_t rows = sh.rows;
        device::launch(
            ctx, d,
            [=](index_t j) {
              real acc = 0;
              for (index_t i = 0; i < rows; ++i) acc += vp[i * d + j];
              csv[j] = acc;
            },
            device::tagged("sdc.checksum", static_cast<double>(rows) * d,
                           static_cast<double>(rows) * d * sizeof(real),
                           static_cast<double>(d) * sizeof(real)));
      }
    }
  }

  KmeansResult run(std::uint64_t seed);

 private:
  void assemble_distances(Shard& sh, index_t sweep, KmeansResult& result);
  void assign_and_reduce(Shard& sh);

  device::DeviceGroup& group_;
  const real* v_;  ///< host points
  index_t n_;
  index_t d_;
  index_t k_;
  const KmeansConfig& config_;
  usize stride_;
  std::vector<Shard> shards_;
};

/// S = Vnorm + Cnorm - 2 V C^T for one device (Eq. 11-16), then — with ABFT
/// on — detect -> recompute the block once -> escalate: a second mismatch
/// means the corruption lives upstream (V, centroids, norms) and the k-means
/// ladder has to rebuild device state.
void GroupSweep::assemble_distances(Shard& sh, index_t sweep,
                                    KmeansResult& result) {
  device::DeviceContext& ctx = *sh.ctx;
  const index_t nl = sh.rows;
  const index_t k = k_;
  const index_t d = d_;
  real* sp = sh.s.data();
  for (int attempt = 0;; ++attempt) {
    {
      obs::AttrSiteScope dist_site("gemm.kmeans_dist");
      dblas::row_squared_norms(ctx, k, d, sh.cent.data(), d, sh.cnorm.data());
      const real* vnorm = sh.vnorm.data();
      const real* cnorm = sh.cnorm.data();
      device::launch(
          ctx, nl * k,
          [=](index_t t) { sp[t] = vnorm[t / k] + cnorm[t % k]; },
          device::tagged("gemm.kmeans_dist", static_cast<double>(nl) * k,
                         static_cast<double>(nl + k) * sizeof(real),
                         static_cast<double>(nl) * k * sizeof(real)));
      dblas::gemm_nt(ctx, nl, k, d, -2.0, sh.v.data(), d, sh.cent.data(), d,
                     1.0, sp, k);
      fault::corrupt_scalars("bitflip.kmeans.dist", sp,
                             static_cast<usize>(nl) * static_cast<usize>(k));
    }
    if (!config_.abft) return;
    obs::AttrSiteScope abft_site("sdc.checksum");
    obs::sdc_note_check();
    ++result.abft_checks;
    const real* csv = sh.colsum_v.data();
    const real* cp = sh.cent.data();
    real* prod = sh.prod.data();
    device::launch(ctx, d,
                   [=](index_t j) {
                     real acc = 0;
                     for (index_t c = 0; c < k; ++c) acc += cp[c * d + j];
                     prod[j] = csv[j] * acc;
                   },
                   device::tagged("sdc.checksum", static_cast<double>(k) * d,
                                  static_cast<double>(k) * d * sizeof(real),
                                  static_cast<double>(d) * sizeof(real)));
    const real sum_s = device::reduce_sum(ctx, sp, nl * k);
    const real sum_vn = sh.vnorm_sum;
    const real sum_cn = device::reduce_sum(ctx, sh.cnorm.data(), k);
    const real dot = device::reduce_sum(ctx, sh.prod.data(), d);
    const real predicted = k * sum_vn + nl * sum_cn - 2 * dot;
    const real scale =
        std::abs(k * sum_vn) + std::abs(nl * sum_cn) + 2 * std::abs(dot) + 1;
    const double elems = static_cast<double>(nl) * (k + d) + d;
    const real tol =
        std::numeric_limits<real>::epsilon() * (std::sqrt(elems) + 64) * scale;
    if (std::abs(sum_s - predicted) <= tol) return;
    ++result.abft_detected;
    obs::sdc_note_detected(
        "gemm.kmeans_dist",
        "sum(S) = " + std::to_string(sum_s) + " vs predicted " +
            std::to_string(predicted) + " (tol " + std::to_string(tol) +
            ") at sweep " + std::to_string(sweep));
    if (attempt == 0) {
      ++result.abft_recomputed;
      obs::sdc_note_recomputed("gemm.kmeans_dist");
      continue;
    }
    throw device::DataIntegrityError(
        "k-means distance checksum mismatch persisted after recompute at "
        "sweep " +
        std::to_string(sweep));
  }
}

/// Label every local point with the argmin of its row of S, then reduce
/// fixed kBlockRows-point blocks to partial (sums, counts, changed,
/// inertia) records.
void GroupSweep::assign_and_reduce(Shard& sh) {
  device::DeviceContext& ctx = *sh.ctx;
  const index_t nl = sh.rows;
  const index_t k = k_;
  const index_t d = d_;
  const real* sp = sh.s.data();
  const real* pv = sh.v.data();
  const index_t* cur = sh.cur.data();
  index_t* next = sh.next.data();
  real* min_dist = sh.min_dist.data();
  real* partials = sh.partials.data();
  device::launch(
      ctx, nl,
      [=](index_t i) {
        const real* row = sp + i * k;
        index_t best = 0;
        real best_val = row[0];
        for (index_t j = 1; j < k; ++j) {
          if (row[j] < best_val) {
            best_val = row[j];
            best = j;
          }
        }
        next[i] = best;
        min_dist[i] = best_val;
      },
      device::tagged("kmeans.argmin", static_cast<double>(nl) * k,
                     static_cast<double>(nl) * k * sizeof(real),
                     static_cast<double>(nl) *
                         (sizeof(real) + sizeof(index_t))));

  const usize stride = stride_;
  device::launch(
      ctx, sh.blocks,
      [=](index_t b) {
        real* rec = partials + static_cast<usize>(b) * stride;
        for (usize s = 0; s < stride; ++s) rec[s] = 0;
        real* rsums = rec;
        real* rcounts = rec + k * d;
        real& rchanged = rec[stride - 2];
        real& rinertia = rec[stride - 1];
        const index_t i0 = b * kBlockRows;
        const index_t i1 = std::min(nl, i0 + kBlockRows);
        for (index_t i = i0; i < i1; ++i) {
          const index_t lab = next[i];
          const real* row = pv + i * d;
          for (index_t l = 0; l < d; ++l) rsums[lab * d + l] += row[l];
          rcounts[lab] += 1;
          if (next[i] != cur[i]) rchanged += 1;
          rinertia += min_dist[i];
        }
      },
      device::tagged(
          "kmeans.block_reduce",
          static_cast<double>(nl) * static_cast<double>(d + 2),
          static_cast<double>(nl) *
              (static_cast<double>(d) * sizeof(real) + 2.0 * sizeof(index_t)),
          static_cast<double>(sh.blocks) * static_cast<double>(stride) *
              sizeof(real)));
}

KmeansResult GroupSweep::run(std::uint64_t seed) {
  const index_t n = n_;
  const index_t d = d_;
  const index_t k = k_;
  const usize stride = stride_;
  const usize ndev = shards_.size();

  Rng rng(seed);
  const std::vector<index_t> seed_rows =
      config_.seeding == Seeding::kKmeansPlusPlus
          ? kmeanspp_seeds_host(v_, n, d, k, rng)
          : random_seeds_host(n, k, rng);
  std::vector<real> centroids(static_cast<usize>(k) * static_cast<usize>(d));
  for (index_t c = 0; c < k; ++c) {
    const real* row = v_ + seed_rows[static_cast<usize>(c)] * d;
    std::copy(row, row + d, centroids.begin() + c * d);
  }
  for (Shard& sh : shards_) {
    // Labels start at the invalid value k so the first sweep counts every
    // point as changed.
    index_t* cur = sh.cur.data();
    device::launch(*sh.ctx, sh.rows, [cur, k](index_t i) { cur[i] = k; },
                   device::tagged("kmeans.init"));
  }

  KmeansResult result;
  std::vector<real> host_partials;
  std::vector<real> sums(centroids.size());
  std::vector<index_t> counts(static_cast<usize>(k));
  real inertia = 0;
  for (index_t sweep = 0; sweep < config_.max_iters; ++sweep) {
    // Deadline check at the sweep boundary.  The first sweep must run (there
    // is no assignment yet), so it polls hard; later sweeps stop softly on
    // an anytime expiry, keeping the previous assignment.
    if (sweep == 0) {
      cancel::poll("kmeans.sweep");
    } else if (cancel::expired("kmeans.sweep")) {
      break;
    }

    // Centroid broadcast: host -> root over the PCIe link, root -> peers
    // over the D2D link.
    shards_[0].cent.copy_from_host(std::span<const real>(centroids));
    for (usize e = 1; e < ndev; ++e) {
      group_.copy_peer(0, e, shards_[0].cent.data(), shards_[e].cent.data(),
                       centroids.size(), "d2d.centroid_bcast");
    }
    for (Shard& sh : shards_) {
      if (sh.rows == 0) continue;
      assemble_distances(sh, sweep, result);
      assign_and_reduce(sh);
    }

    // Fold on the root in ascending global block order (devices are in row
    // order, blocks within a device are in row order).  Partials download
    // over each device's own link, then ship to the root on the D2D link.
    std::fill(sums.begin(), sums.end(), real{0});
    std::fill(counts.begin(), counts.end(), index_t{0});
    index_t changed = 0;
    inertia = 0;
    for (usize dev = 0; dev < ndev; ++dev) {
      Shard& sh = shards_[dev];
      if (sh.blocks == 0) continue;
      host_partials.resize(static_cast<usize>(sh.blocks) * stride);
      sh.partials.copy_to_host(std::span<real>(host_partials));
      if (dev != 0) {
        group_.model_peer_transfer(dev, 0, host_partials.size() * sizeof(real),
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

    result.iterations = sweep + 1;
    if (config_.record_inertia || obs::trace_enabled()) {
      result.inertia_history.push_back(inertia);
      result.changed_history.push_back(changed);
      if (obs::trace_enabled()) {
        const double now = obs::wall_now_us();
        obs::trace().counter("kmeans.inertia", inertia, now);
        obs::trace().counter("kmeans.changed", static_cast<double>(changed),
                             now);
      }
    }

    // Labels for the next sweep are this sweep's assignment.
    for (Shard& sh : shards_) sh.cur.swap(sh.next);
    if (changed == 0) {
      result.converged = true;
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
      for (usize dev = 0; dev < ndev; ++dev) {
        Shard& sh = shards_[dev];
        if (sh.rows == 0) continue;
        sh.min_dist.copy_to_host(std::span<real>(
            min_dist.data() + sh.row_begin, static_cast<usize>(sh.rows)));
        if (dev != 0) {
          group_.model_peer_transfer(
              dev, 0, static_cast<usize>(sh.rows) * sizeof(real),
              "d2d.centroid_reduce");
        }
      }
      repair_empty_clusters(centroids, counts, v_, std::move(min_dist), d);
    }
  }

  // Algorithm 4 step 4: transfer the labels back to the host.
  result.labels.resize(static_cast<usize>(n));
  for (Shard& sh : shards_) {
    if (sh.rows == 0) continue;
    sh.cur.copy_to_host(std::span<index_t>(
        result.labels.data() + sh.row_begin, static_cast<usize>(sh.rows)));
  }
  result.centroids = std::move(centroids);
  result.objective = inertia;
  return result;
}

}  // namespace

KmeansResult kmeans_group(device::DeviceGroup& group,
                          std::span<const index_t> cuts, const real* v,
                          index_t n, index_t d, const KmeansConfig& config) {
  FASTSC_CHECK(n >= 1 && d >= 1, "data must be nonempty");
  FASTSC_CHECK(config.k >= 1 && config.k <= n, "k must be in [1, n]");
  FASTSC_CHECK(config.restarts >= 1, "restarts must be positive");
  FASTSC_CHECK(cuts.size() == group.size() + 1 && cuts.front() == 0 &&
                   cuts.back() == n,
               "row cuts must span [0, n) with one part per device");
  for (usize i = 1; i < cuts.size(); ++i) {
    FASTSC_CHECK(cuts[i - 1] <= cuts[i] &&
                     (cuts[i] == n || cuts[i] % kBlockRows == 0),
                 "row cuts must ascend on kBlockRows boundaries");
  }
  const usize nd = static_cast<usize>(n) * static_cast<usize>(d);
  check_finite({v, nd}, "k-means input data");
  // Default bucket for the whole solve: untagged primitives (fills, copies,
  // reductions, buffer transfers) attribute here; the hot launches carry
  // their own finer-grained sites.
  obs::AttrSiteScope attr_site("kmeans.lloyd");

  GroupSweep sweep(group, cuts, v, n, d, config);
  KmeansResult best;
  std::uint64_t checks = 0;
  std::uint64_t detected = 0;
  std::uint64_t recomputed = 0;
  for (index_t r = 0; r < config.restarts; ++r) {
    // A deadline between restarts keeps the best completed run (anytime);
    // hard cancellation throws from the poll sites inside the run itself.
    if (r > 0 && cancel::expired("kmeans.restart")) break;
    KmeansResult candidate =
        sweep.run(config.seed + static_cast<std::uint64_t>(r) * 0x9e3779b9ULL);
    checks += candidate.abft_checks;
    detected += candidate.abft_detected;
    recomputed += candidate.abft_recomputed;
    if (r == 0 || candidate.objective < best.objective) {
      best = std::move(candidate);
    }
  }
  best.abft_checks = checks;
  best.abft_detected = detected;
  best.abft_recomputed = recomputed;
  return best;
}

KmeansResult kmeans_device(device::DeviceContext& ctx, const real* v,
                           index_t n, index_t d, const KmeansConfig& config) {
  device::DeviceGroup group(ctx);
  const index_t cuts[] = {0, n};
  return kmeans_group(group, cuts, v, n, d, config);
}

}  // namespace fastsc::kmeans
