#include "core/fingerprint.h"

#include <type_traits>
#include <vector>

#include "core/spectral.h"

namespace fastsc::core {

std::uint64_t fnv1a64(const void* data, usize bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (usize i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

template <class T>
std::uint64_t mix(std::uint64_t h, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a64(&value, sizeof(T), h);
}

template <class T>
std::uint64_t mix_vec(std::uint64_t h, const std::vector<T>& v) {
  // Length framing so ([1,2], [3]) and ([1], [2,3]) hash differently.
  h = mix(h, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) h = fnv1a64(v.data(), v.size() * sizeof(T), h);
  return h;
}

}  // namespace

std::uint64_t graph_fingerprint(const sparse::Coo& w) {
  std::uint64_t h = fnv1a64("fastsc.graph", 12);
  h = mix(h, w.rows);
  h = mix(h, w.cols);
  h = mix_vec(h, w.row_idx);
  h = mix_vec(h, w.col_idx);
  h = mix_vec(h, w.values);
  return h;
}

std::uint64_t config_fingerprint(const SpectralConfig& cfg) {
  std::uint64_t h = fnv1a64("fastsc.config", 13);
  h = mix(h, cfg.num_clusters);
  h = mix(h, static_cast<int>(cfg.backend));
  h = mix(h, cfg.ncv);
  h = mix(h, cfg.eig_tol);
  h = mix(h, cfg.max_restarts);
  h = mix(h, static_cast<int>(cfg.which));
  h = mix(h, cfg.similarity_chunk_edges);
  h = mix(h, cfg.kmeans_max_iters);
  h = mix(h, static_cast<int>(cfg.seeding));
  h = mix(h, cfg.row_normalize_embedding);
  h = mix(h, cfg.seed);
  return h;
}

}  // namespace fastsc::core
