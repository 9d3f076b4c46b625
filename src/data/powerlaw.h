// Power-law (Zipf-degree) synthetic graph generator, Chung-Lu style.
//
// Real-world similarity graphs — the social networks of the paper's Tables
// 4/6/7 — have heavy-tailed degree distributions, which is exactly the
// workload where row-split SpMV loses its balance: a handful of hub rows
// carry a large fraction of the nnz.  The SBM generator (data/sbm.h)
// produces near-uniform degrees, so benchmarks built on it cannot expose
// that imbalance.  This generator plants a Zipf weight w_i ~ (i+1)^-alpha
// per node and samples edge endpoints proportional to the weights
// (Chung & Lu 2002), giving an expected degree sequence with the same
// power-law tail; the "skewed" case of the SpMV format bench and the
// merge-path balance bench are built on it.
#pragma once

#include "common/rng.h"
#include "common/types.h"
#include "sparse/coo.h"

namespace fastsc::data {

struct PowerlawParams {
  index_t n = 0;          ///< node count
  real avg_degree = 8.0;  ///< target mean degree (2m / n)
  /// Target degree-distribution exponent gamma (P(deg = d) ~ d^-gamma);
  /// 2.1 sits in the 2..3 band measured for real social graphs.  Internally
  /// the rank weights are w_i ~ (i+1)^(-1/(gamma-1)), the standard mapping
  /// from a rank (Zipf) law to a degree-tail law.
  real exponent = 2.1;
  std::uint64_t seed = 42;
  /// Weight assigned to every sampled edge.
  real edge_weight = 1.0;
};

struct PowerlawGraph {
  /// Symmetric adjacency (both directions stored), no self loops, no
  /// duplicate edges.
  sparse::Coo w;
  /// Expected (not realized) degree of each node under the model — handy
  /// for tests asserting the planted skew.
  std::vector<real> expected_degree;
};

/// Sample a graph: m = n * avg_degree / 2 endpoint pairs drawn independently
/// with P(node i) proportional to w_i, self loops rejected, duplicates
/// merged.  Deterministic for a fixed seed.
[[nodiscard]] PowerlawGraph make_powerlaw(const PowerlawParams& params);

}  // namespace fastsc::data
