#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/fingerprint.h"
#include "data/powerlaw.h"
#include "data/social.h"
#include "graph/build.h"
#include "graph/components.h"
#include "sparse/convert.h"

namespace perfbench {

namespace {

index_t scaled(index_t full, double scale, index_t floor) {
  return std::max<index_t>(
      floor, static_cast<index_t>(std::llround(static_cast<double>(full) * scale)));
}

/// An isomorphic copy of `w` whose vertices are numbered by descending
/// degree, ties broken by a hash of (seed, vertex): the hubs keep the low
/// ids the generator gives them, and the seed shuffles everything else.
/// Entries come back sorted by (row, col), as the generators emit them.
fastsc::sparse::Coo renumbered(const fastsc::sparse::Coo& w,
                               std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(w.rows);
  std::vector<index_t> degree(n, 0);
  for (const index_t r : w.row_idx) ++degree[static_cast<std::size_t>(r)];
  std::vector<std::uint64_t> tie(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t key[2] = {seed, v};
    tie[v] = fastsc::core::fnv1a64(key, sizeof(key));
  }
  std::vector<index_t> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<index_t>(v);
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    const auto ua = static_cast<std::size_t>(a);
    const auto ub = static_cast<std::size_t>(b);
    if (degree[ua] != degree[ub]) return degree[ua] > degree[ub];
    return tie[ua] != tie[ub] ? tie[ua] < tie[ub] : a < b;
  });
  std::vector<index_t> new_id(n);
  for (std::size_t i = 0; i < n; ++i) {
    new_id[static_cast<std::size_t>(order[i])] = static_cast<index_t>(i);
  }
  fastsc::sparse::Coo out = w;
  for (std::size_t e = 0; e < out.row_idx.size(); ++e) {
    out.row_idx[e] = new_id[static_cast<std::size_t>(w.row_idx[e])];
    out.col_idx[e] = new_id[static_cast<std::size_t>(w.col_idx[e])];
  }
  fastsc::sparse::sort_and_merge(out);
  return out;
}

}  // namespace

DtiInput make_dti_input(std::uint64_t seed, double scale, int count) {
  fastsc::data::DtiParams p;
  // 16^3 voxels keeps one solve under a second, so a run times tens of
  // them; profile width, parcel count and radius follow paper Table III.
  const index_t side = scaled(16, std::cbrt(scale), 6);
  p.nx = p.ny = p.nz = side;
  p.profile_dim = 90;
  p.num_parcels = scale < 1 ? std::min<index_t>(8, side * side) : 64;
  p.epsilon = 2.0;
  p.seed = 1;
  p.noise = 0;
  DtiInput in;
  in.vol = fastsc::data::make_dti_like(p);
  in.k = p.num_parcels;
  const fastsc::graph::EdgeList sym = fastsc::graph::symmetrized(in.vol.edges);
  fastsc::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    std::vector<fastsc::real> x = in.vol.profiles;
    for (fastsc::real& v : x) v += kDtiNoise * rng.normal();
    in.w.push_back(fastsc::graph::build_similarity_host(
        x.data(), in.vol.n, in.vol.d, sym, solve_config(in.k).similarity));
    in.profiles.push_back(std::move(x));
  }
  return in;
}

std::vector<GraphInput> make_powerlaw_inputs(std::uint64_t seed, double scale,
                                             int count) {
  fastsc::data::PowerlawParams p;
  // 20k vertices: one solve takes ~0.5 s on 4 cores, so a run times tens.
  p.n = scaled(20000, scale, 400);
  p.avg_degree = 48.0;
  p.exponent = 2.1;
  p.seed = 1;
  std::vector<index_t> old_of_new;
  const fastsc::sparse::Coo lcc = fastsc::graph::largest_component(
      fastsc::data::make_powerlaw(p).w, old_of_new);
  std::vector<GraphInput> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    GraphInput& g = out[static_cast<std::size_t>(i)];
    g.w = renumbered(lcc, seed * 1000003u + static_cast<std::uint64_t>(i));
    g.k = 8;
  }
  return out;
}

GraphInput make_social_input(std::uint64_t seed, index_t n) {
  const index_t k = 10;
  const fastsc::data::SocialParams p = fastsc::data::fb_like_params(n, k, seed);
  const fastsc::data::SbmGraph g = fastsc::data::make_social_graph(p);
  GraphInput in;
  std::vector<index_t> old_of_new;
  in.w = fastsc::graph::largest_component(g.w, old_of_new);
  in.truth.reserve(old_of_new.size());
  for (const index_t v : old_of_new) {
    in.truth.push_back(g.labels[static_cast<std::size_t>(v)]);
  }
  in.k = k;
  return in;
}

fastsc::core::SpectralConfig solve_config(index_t k) {
  fastsc::core::SpectralConfig cfg;
  cfg.num_clusters = k;
  cfg.backend = fastsc::core::Backend::kDevice;
  return cfg;
}

}  // namespace perfbench
