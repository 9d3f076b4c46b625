#include "kmeans/seeding.h"

#include <algorithm>
#include <cmath>

#include "common/cancel.h"
#include "common/error.h"

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

std::vector<index_t> random_seeds_host(index_t n, index_t k, Rng& rng) {
  FASTSC_CHECK(k >= 1 && k <= n, "k must be in [1, n]");
  // Partial Fisher-Yates over an index array.
  std::vector<index_t> idx(static_cast<usize>(n));
  for (index_t i = 0; i < n; ++i) idx[static_cast<usize>(i)] = i;
  for (index_t i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<index_t>(rng.uniform_index(
                static_cast<std::uint64_t>(n - i)));
    std::swap(idx[static_cast<usize>(i)], idx[static_cast<usize>(j)]);
  }
  idx.resize(static_cast<usize>(k));
  return idx;
}

std::vector<index_t> kmeanspp_seeds_host(const real* v, index_t n, index_t d,
                                         index_t k, Rng& rng) {
  FASTSC_CHECK(k >= 1 && k <= n, "k must be in [1, n]");
  std::vector<index_t> seeds;
  seeds.reserve(static_cast<usize>(k));
  // Step 1: first centroid uniformly at random.
  seeds.push_back(static_cast<index_t>(rng.uniform_index(
      static_cast<std::uint64_t>(n))));
  // Step 2: Dist_j = squared distance to the nearest chosen centroid.
  std::vector<real> dist2(static_cast<usize>(n));
  const real* c0 = v + seeds[0] * d;
  for (index_t j = 0; j < n; ++j) {
    dist2[static_cast<usize>(j)] = sq_dist(v + j * d, c0, d);
  }
  for (index_t i = 1; i < k; ++i) {
    cancel::poll("kmeans.seeding");
    // Sample proportional to Dist^2 (squared Euclidean distance).
    real total = 0;
    for (real x : dist2) total += x;
    index_t pick;
    if (total <= 0) {
      // All remaining points coincide with centroids; fall back to uniform.
      pick = static_cast<index_t>(
          rng.uniform_index(static_cast<std::uint64_t>(n)));
    } else {
      const real target = rng.uniform() * total;
      real acc = 0;
      pick = n - 1;
      for (index_t j = 0; j < n; ++j) {
        acc += dist2[static_cast<usize>(j)];
        if (acc >= target) {
          pick = j;
          break;
        }
      }
    }
    seeds.push_back(pick);
    const real* ci = v + pick * d;
    for (index_t j = 0; j < n; ++j) {
      dist2[static_cast<usize>(j)] =
          std::min(dist2[static_cast<usize>(j)], sq_dist(v + j * d, ci, d));
    }
  }
  return seeds;
}

void repair_empty_clusters(std::vector<real>& centroids,
                           const std::vector<index_t>& counts, const real* v,
                           std::vector<real> min_dist, index_t d) {
  for (usize c = 0; c < counts.size(); ++c) {
    if (counts[c] != 0) continue;
    usize far = 0;
    real best = -1;
    for (usize j = 0; j < min_dist.size(); ++j) {
      if (min_dist[j] > best) {
        best = min_dist[j];
        far = j;
      }
    }
    const real* row = v + static_cast<index_t>(far) * d;
    std::copy(row, row + d, centroids.begin() + static_cast<index_t>(c) * d);
    min_dist[far] = -1;  // don't reuse for another empty
  }
}

}  // namespace fastsc::kmeans
