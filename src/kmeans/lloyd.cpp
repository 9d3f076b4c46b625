#include "kmeans/lloyd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/cancel.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/validation.h"
#include "kmeans/seeding.h"
#include "obs/trace.h"

namespace fastsc::kmeans {

namespace {

real sq_dist(const real* a, const real* b, index_t d) {
  real acc = 0;
  for (index_t l = 0; l < d; ++l) {
    const real delta = a[l] - b[l];
    acc += delta * delta;
  }
  return acc;
}

}  // namespace

real kmeans_objective(const real* v, index_t n, index_t d,
                      const std::vector<index_t>& labels,
                      const std::vector<real>& centroids, index_t k) {
  FASTSC_CHECK(static_cast<index_t>(labels.size()) == n,
               "labels size must be n");
  real acc = 0;
  for (index_t i = 0; i < n; ++i) {
    const index_t c = labels[static_cast<usize>(i)];
    FASTSC_CHECK(c >= 0 && c < k, "label out of range");
    acc += sq_dist(v + i * d, centroids.data() + c * d, d);
  }
  return acc;
}

namespace {
KmeansResult lloyd_single(const real* v, index_t n, index_t d,
                          const KmeansConfig& config);
}  // namespace

KmeansResult kmeans_lloyd_host(const real* v, index_t n, index_t d,
                               const KmeansConfig& config) {
  FASTSC_CHECK(config.restarts >= 1, "restarts must be positive");
  KmeansResult best;
  for (index_t r = 0; r < config.restarts; ++r) {
    // A deadline between restarts keeps the best completed run (anytime);
    // hard cancellation throws from the poll sites inside the run itself.
    if (r > 0 && cancel::expired("kmeans.restart")) break;
    KmeansConfig cfg = config;
    cfg.seed = config.seed + static_cast<std::uint64_t>(r) * 0x9e3779b9ULL;
    KmeansResult candidate = lloyd_single(v, n, d, cfg);
    if (r == 0 || candidate.objective < best.objective) {
      best = std::move(candidate);
    }
  }
  return best;
}

namespace {
KmeansResult lloyd_single(const real* v, index_t n, index_t d,
                          const KmeansConfig& config) {
  FASTSC_CHECK(n >= 1 && d >= 1, "data must be nonempty");
  FASTSC_CHECK(config.k >= 1 && config.k <= n, "k must be in [1, n]");
  check_finite({v, static_cast<usize>(n) * static_cast<usize>(d)},
               "k-means input data");
  const index_t k = config.k;
  Rng rng(config.seed);

  std::vector<index_t> seed_rows =
      config.seeding == Seeding::kKmeansPlusPlus
          ? kmeanspp_seeds_host(v, n, d, k, rng)
          : random_seeds_host(n, k, rng);

  KmeansResult result;
  result.centroids.assign(static_cast<usize>(k) * static_cast<usize>(d), 0.0);
  for (index_t c = 0; c < k; ++c) {
    std::copy(v + seed_rows[static_cast<usize>(c)] * d,
              v + (seed_rows[static_cast<usize>(c)] + 1) * d,
              result.centroids.begin() + c * d);
  }
  result.labels.assign(static_cast<usize>(n), -1);
  std::vector<real> min_dist(static_cast<usize>(n), 0.0);
  std::vector<real> sums(static_cast<usize>(k) * static_cast<usize>(d));
  std::vector<index_t> counts(static_cast<usize>(k));

  index_t iter = 0;
  for (; iter < config.max_iters; ++iter) {
    // Deadline check at the sweep boundary.  The first sweep must run (labels
    // are still -1, there is no best-so-far), so it polls hard; later sweeps
    // stop softly on an anytime expiry, keeping the previous assignment.
    if (iter == 0) {
      cancel::poll("kmeans.sweep");
    } else if (cancel::expired("kmeans.sweep")) {
      break;
    }
    // Assignment step: naive double loop, as a scripting environment runs it.
    index_t changes = 0;
    for (index_t i = 0; i < n; ++i) {
      const real* row = v + i * d;
      index_t best = 0;
      real best_val = std::numeric_limits<real>::max();
      for (index_t c = 0; c < k; ++c) {
        const real dist = sq_dist(row, result.centroids.data() + c * d, d);
        if (dist < best_val) {
          best_val = dist;
          best = c;
        }
      }
      if (result.labels[static_cast<usize>(i)] != best) ++changes;
      result.labels[static_cast<usize>(i)] = best;
      min_dist[static_cast<usize>(i)] = best_val;
    }

    if (config.record_inertia || obs::trace_enabled()) {
      // min_dist holds each point's distance to its assigned centroid — the
      // assignment-step objective, free to sum here (before the update step
      // may overwrite entries during empty-cluster repair).
      real inertia = 0;
      for (index_t i = 0; i < n; ++i) inertia += min_dist[static_cast<usize>(i)];
      result.inertia_history.push_back(inertia);
      result.changed_history.push_back(changes);
      if (obs::trace_enabled()) {
        const double now = obs::wall_now_us();
        obs::trace().counter("kmeans.inertia", inertia, now);
        obs::trace().counter("kmeans.changed", static_cast<double>(changes),
                             now);
      }
    }

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (index_t i = 0; i < n; ++i) {
      const index_t c = result.labels[static_cast<usize>(i)];
      counts[static_cast<usize>(c)] += 1;
      const real* row = v + i * d;
      real* sum = sums.data() + c * d;
      for (index_t l = 0; l < d; ++l) sum[l] += row[l];
    }
    bool any_empty = false;
    for (index_t c = 0; c < k; ++c) {
      if (counts[static_cast<usize>(c)] == 0) {
        any_empty = true;
        continue;
      }
      const real inv = 1.0 / static_cast<real>(counts[static_cast<usize>(c)]);
      for (index_t l = 0; l < d; ++l) {
        result.centroids[static_cast<usize>(c * d + l)] =
            sums[static_cast<usize>(c * d + l)] * inv;
      }
    }
    // Empty clusters: farthest-point reseed, matching the device path.
    if (any_empty) {
      repair_empty_clusters(result.centroids, counts, v, min_dist, d);
    }

    if (changes == 0) {
      result.converged = true;
      ++iter;
      break;
    }
  }
  result.iterations = iter;
  result.objective =
      kmeans_objective(v, n, d, result.labels, result.centroids, k);
  return result;
}
}  // namespace

}  // namespace fastsc::kmeans
