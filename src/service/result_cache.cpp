#include "service/result_cache.h"

#include "common/crc32c.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/sdc.h"
#include "obs/trace.h"

namespace fastsc::service {

std::uint32_t CacheEntry::payload_crc() const {
  std::uint32_t c = 0;
  if (!labels.empty()) {
    c = crc32c(labels.data(), labels.size() * sizeof(index_t), c);
  }
  if (!eigenvalues.empty()) {
    c = crc32c(eigenvalues.data(), eigenvalues.size() * sizeof(real), c);
  }
  c = crc32c(&n, sizeof(n), c);
  c = crc32c(&k, sizeof(k), c);
  const std::uint32_t cp_crc =
      checkpoint != nullptr ? checkpoint->payload_crc() : 0;
  return crc32c(&cp_crc, sizeof(cp_crc), c);
}

ResultCache::ResultCache(std::uint64_t capacity_bytes)
    : capacity_(capacity_bytes) {}

std::uint64_t ResultCache::entry_bytes(const CacheEntry& e) {
  std::uint64_t b = sizeof(CacheEntry);
  b += e.labels.size() * sizeof(index_t);
  b += e.eigenvalues.size() * sizeof(real);
  if (e.checkpoint != nullptr) {
    b += sizeof(lanczos::LanczosCheckpoint);
    b += e.checkpoint->v.size() * sizeof(real);
    b += e.checkpoint->t.size() * sizeof(real);
  }
  return b;
}

bool ResultCache::verify_or_evict_locked(std::list<CacheEntry>::iterator it) {
  CacheEntry& e = *it;
  // At-rest corruption injection point: the stored label array is the live
  // payload a flipped DRAM bit would land in.
  if (!e.labels.empty()) {
    fault::corrupt_bytes("bitflip.cache.entry", e.labels.data(),
                         e.labels.size() * sizeof(index_t));
  }
  if (e.payload_crc() == e.crc) return true;
  obs::sdc_note_detected("cache.entry",
                         "cached result failed its CRC32C seal (graph fp " +
                             std::to_string(e.graph_fp) + ")");
  bytes_ -= e.bytes;
  map_.erase(CacheKey{e.graph_fp, e.config_fp});
  lru_.erase(it);
  obs::bump("cache.integrity_evicted");
  publish_gauges_locked();
  return false;
}

std::optional<CacheEntry> ResultCache::lookup(const CacheKey& key) {
  if (capacity_ == 0) {
    obs::bump("cache.misses");
    return std::nullopt;
  }
  std::lock_guard lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    obs::bump("cache.misses");
    return std::nullopt;
  }
  if (!verify_or_evict_locked(it->second)) {
    // Corrupted entry: dropped above; the job falls through to a cold solve.
    obs::bump("cache.misses");
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  obs::bump("cache.hits");
  return *it->second;
}

std::shared_ptr<const lanczos::LanczosCheckpoint> ResultCache::lookup_warm(
    std::uint64_t config_fp, index_t n, std::uint64_t warm_hint) {
  if (capacity_ == 0 || warm_hint == 0) return nullptr;
  std::lock_guard lock(mu_);
  const auto it = map_.find(CacheKey{warm_hint, config_fp});
  if (it == map_.end() || it->second->checkpoint == nullptr ||
      it->second->n != n || !verify_or_evict_locked(it->second)) {
    // Missing, checkpoint-less or corrupt (evicted) donor: cold start.  No
    // fallback to other same-shaped entries — a donor basis from an
    // unrelated graph converges to the wrong clusters.
    return nullptr;
  }
  obs::bump("cache.warm_donors");
  return it->second->checkpoint;
}

void ResultCache::insert(CacheEntry entry) {
  if (capacity_ == 0) return;
  if (entry.bytes == 0) entry.bytes = entry_bytes(entry);
  entry.crc = entry.payload_crc();  // seal (verified by every lookup)
  if (entry.bytes > capacity_) return;  // would evict everything and not fit
  std::lock_guard lock(mu_);
  const CacheKey key{entry.graph_fp, entry.config_fp};
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Replace in place (refreshed checkpoint after a re-solve).
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  evict_until_fits_locked(entry.bytes);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  map_.emplace(key, lru_.begin());
  obs::bump("cache.inserts");
  publish_gauges_locked();
}

void ResultCache::evict_until_fits_locked(std::uint64_t incoming_bytes) {
  while (!lru_.empty() && bytes_ + incoming_bytes > capacity_) {
    const CacheEntry& victim = lru_.back();
    bytes_ -= victim.bytes;
    map_.erase(CacheKey{victim.graph_fp, victim.config_fp});
    lru_.pop_back();
    obs::bump("cache.evictions");
  }
}

void ResultCache::publish_gauges_locked() {
  obs::metrics().set_gauge("cache.bytes", static_cast<double>(bytes_));
  obs::metrics().set_gauge("cache.entries", static_cast<double>(lru_.size()));
}

std::uint64_t ResultCache::bytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

usize ResultCache::entries() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace fastsc::service
