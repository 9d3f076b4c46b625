// Byte-accounted LRU result cache for the clustering service.
//
// Entries are keyed by (graph fingerprint, config fingerprint) — see
// core/fingerprint.h — and hold the solve's labels and eigenvalues plus,
// optionally, the eigensolver's restart-boundary checkpoint so a later
// delta-edge re-solve can warm-start from the cached Krylov basis.
//
// Thread-safe: one mutex guards the map + LRU list (lookups touch the list,
// so even reads mutate).  Eviction is strictly by bytes: inserting an entry
// evicts least-recently-used entries until the capacity holds, and an entry
// larger than the whole capacity is simply not cached.  All activity is
// published as cache.* counters/gauges in obs::metrics().
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "lanczos/irlm.h"

namespace fastsc::service {

struct CacheKey {
  std::uint64_t graph_fp = 0;
  std::uint64_t config_fp = 0;

  [[nodiscard]] bool operator==(const CacheKey&) const noexcept = default;
};

struct CacheKeyHash {
  [[nodiscard]] usize operator()(const CacheKey& k) const noexcept {
    // Split-mix the pair; either half alone is already a 64-bit hash.
    std::uint64_t h = k.graph_fp ^ (k.config_fp * 0x9e3779b97f4a7c15ull);
    h ^= h >> 32;
    return static_cast<usize>(h);
  }
};

/// One cached solve.  `checkpoint` is shared with the SpectralResult that
/// produced it (never copied — a paper-scale Krylov basis is tens of MB).
struct CacheEntry {
  std::vector<index_t> labels;
  std::vector<real> eigenvalues;
  index_t n = 0;
  index_t k = 0;
  std::shared_ptr<const lanczos::LanczosCheckpoint> checkpoint{};
  std::uint64_t graph_fp = 0;
  std::uint64_t config_fp = 0;
  std::uint64_t bytes = 0;  ///< computed by ResultCache::insert when 0
  /// CRC32C seal over the payload (DESIGN.md §14): labels, eigenvalues,
  /// n/k, and the checkpoint's own payload CRC.  insert() computes it;
  /// every lookup verifies it and evicts on mismatch
  /// (cache.integrity_evicted), falling through to a cold solve.
  std::uint32_t crc = 0;

  [[nodiscard]] std::uint32_t payload_crc() const;
};

class ResultCache {
 public:
  /// capacity_bytes == 0 disables the cache (lookups miss, inserts drop).
  explicit ResultCache(std::uint64_t capacity_bytes);

  /// Exact-key lookup; bumps the entry to most-recently-used.  Counts
  /// cache.hits / cache.misses.
  [[nodiscard]] std::optional<CacheEntry> lookup(const CacheKey& key);

  /// Warm-start donor lookup (does NOT count as hit/miss): the entry for
  /// (warm_hint, config_fp) when it holds an intact checkpoint of problem
  /// size n.  Returns nullptr — cold start — for a zero hint or a missing,
  /// checkpoint-less or corrupt (then evicted) hinted entry.
  [[nodiscard]] std::shared_ptr<const lanczos::LanczosCheckpoint> lookup_warm(
      std::uint64_t config_fp, index_t n, std::uint64_t warm_hint);

  /// Insert (or replace) the entry; evicts LRU entries until it fits.
  void insert(CacheEntry entry);

  [[nodiscard]] std::uint64_t bytes() const;
  [[nodiscard]] usize entries() const;
  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept {
    return capacity_;
  }

  /// Accounted footprint of an entry (labels + eigenvalues + checkpoint
  /// arrays + bookkeeping).
  [[nodiscard]] static std::uint64_t entry_bytes(const CacheEntry& e);

 private:
  void evict_until_fits_locked(std::uint64_t incoming_bytes);
  void publish_gauges_locked();
  /// Apply the at-rest corruption injection site to the stored payload, then
  /// check the entry's CRC seal.  Returns true when intact; on mismatch the
  /// entry is erased (cache.integrity_evicted + sdc.detected.cache.entry)
  /// and false is returned — the caller treats it as absent.
  bool verify_or_evict_locked(std::list<CacheEntry>::iterator it);

  const std::uint64_t capacity_;
  mutable std::mutex mu_;
  /// MRU at front.  The map owns iterators into this list (stable under
  /// splice), the list holds the entries themselves.
  std::list<CacheEntry> lru_;
  std::unordered_map<CacheKey, std::list<CacheEntry>::iterator, CacheKeyHash>
      map_;
  std::uint64_t bytes_ = 0;
};

}  // namespace fastsc::service
