// Stable content fingerprints for graphs and solver configurations.
//
// The service's result cache keys on the pair (graph fingerprint, config
// fingerprint): two jobs hit the same entry exactly when they solve the same
// matrix with the same solver-relevant knobs.  The fingerprints are FNV-1a
// 64-bit hashes over the raw bytes — deterministic across runs on the same
// platform, cheap (one linear pass over the COO arrays), and stable under
// re-submission of an identical graph.  They are *content* hashes, not
// canonical-form hashes: the same matrix with entries in a different order
// fingerprints differently, which is the right behaviour for a cache (the
// generators emit deterministic orderings) and errs toward recompute, never
// toward a wrong hit.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sparse/coo.h"

namespace fastsc::core {

struct SpectralConfig;

/// FNV-1a 64-bit over a byte range; `seed` chains multiple ranges.
[[nodiscard]] std::uint64_t fnv1a64(
    const void* data, usize bytes,
    std::uint64_t seed = 0xcbf29ce484222325ull);

/// Fingerprint of a COO matrix: dimensions, structure (row/col indices), and
/// values, all hashed as raw bytes with length framing between arrays.
[[nodiscard]] std::uint64_t graph_fingerprint(const sparse::Coo& w);

/// Fingerprint of the solver-relevant SpectralConfig fields — everything
/// that changes the labels a solve produces (cluster count, backend,
/// eigensolver knobs, k-means knobs, seed).  Observability,
/// budget, fault-injection, and warm-start fields are deliberately excluded:
/// they change how a run executes, not what it computes.
[[nodiscard]] std::uint64_t config_fingerprint(const SpectralConfig& cfg);

}  // namespace fastsc::core
