// Centroid seeding: uniform random and k-means++ (paper's Algorithm 5,
// Arthur & Vassilvitskii 2007), plus the farthest-point re-seed of empty
// clusters.  All host-side: seeding runs once per solve over the full
// embedding, so every device count draws the same seeds.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace fastsc::kmeans {

/// Host k-means++: returns k row indices into v (n x d).  D^2 weighting.
[[nodiscard]] std::vector<index_t> kmeanspp_seeds_host(const real* v, index_t n,
                                                       index_t d, index_t k,
                                                       Rng& rng);

/// Host uniform seeding without replacement.
[[nodiscard]] std::vector<index_t> random_seeds_host(index_t n, index_t k,
                                                     Rng& rng);

/// Empty-cluster repair: re-seed each empty centroid (counts[c] == 0), in
/// ascending cluster order, at the point currently farthest from its
/// assigned centroid (classic farthest-point heuristic; the first maximum of
/// `min_dist`, which is then retired so no point seeds two clusters).
/// `centroids` is k x d row-major over the n x d points `v`.
void repair_empty_clusters(std::vector<real>& centroids,
                           const std::vector<index_t>& counts, const real* v,
                           std::vector<real> min_dist, index_t d);

}  // namespace fastsc::kmeans
