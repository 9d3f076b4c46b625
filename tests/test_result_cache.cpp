#include "service/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/thread_pool.h"

namespace fastsc::service {
namespace {

/// Entry whose labels are all `fill` — a torn concurrent copy would show
/// mixed values.
CacheEntry make_entry(std::uint64_t graph_fp, std::uint64_t config_fp,
                      index_t n = 16, index_t fill = 1) {
  CacheEntry e;
  e.labels.assign(static_cast<usize>(n), fill);
  e.eigenvalues.assign(4, real{0.5});
  e.n = n;
  e.k = 4;
  e.graph_fp = graph_fp;
  e.config_fp = config_fp;
  return e;
}

std::shared_ptr<const lanczos::LanczosCheckpoint> make_checkpoint(
    index_t n = 16) {
  auto cp = std::make_shared<lanczos::LanczosCheckpoint>();
  cp->n = n;
  cp->nev = 4;
  cp->ncv = 8;
  cp->j = 4;
  cp->nkept = 4;
  cp->v.assign(static_cast<usize>((cp->ncv + 1) * n), real{0.1});
  cp->t.assign(static_cast<usize>(cp->ncv * cp->ncv), real{0});
  return cp;
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache(1 << 20);
  const CacheKey key{7, 9};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(make_entry(7, 9));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->graph_fp, 7u);
  EXPECT_EQ(hit->config_fp, 9u);
  EXPECT_EQ(hit->labels, std::vector<index_t>(16, 1));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), ResultCache::entry_bytes(*hit));
}

TEST(ResultCache, ByteAccountedLruEviction) {
  const std::uint64_t one = ResultCache::entry_bytes(make_entry(1, 1));
  ResultCache cache(2 * one);  // room for exactly two entries
  cache.insert(make_entry(1, 1));
  cache.insert(make_entry(2, 1));
  EXPECT_EQ(cache.entries(), 2u);
  cache.insert(make_entry(3, 1));  // evicts the LRU entry (1)
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * one);
  EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{2, 1}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{3, 1}).has_value());
}

TEST(ResultCache, LookupBumpsRecency) {
  const std::uint64_t one = ResultCache::entry_bytes(make_entry(1, 1));
  ResultCache cache(2 * one);
  cache.insert(make_entry(1, 1));
  cache.insert(make_entry(2, 1));
  ASSERT_TRUE(cache.lookup(CacheKey{1, 1}).has_value());  // 1 is MRU now
  cache.insert(make_entry(3, 1));                         // evicts 2, not 1
  EXPECT_TRUE(cache.lookup(CacheKey{1, 1}).has_value());
  EXPECT_FALSE(cache.lookup(CacheKey{2, 1}).has_value());
}

TEST(ResultCache, ReplaceInPlaceKeepsAccounting) {
  ResultCache cache(1 << 20);
  cache.insert(make_entry(5, 5, /*n=*/16));
  const std::uint64_t small = cache.bytes();
  cache.insert(make_entry(5, 5, /*n=*/512));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), small);
  EXPECT_EQ(cache.bytes(),
            ResultCache::entry_bytes(make_entry(5, 5, /*n=*/512)));
}

TEST(ResultCache, OversizedEntryIsNotCached) {
  ResultCache cache(64);  // smaller than any entry's footprint
  cache.insert(make_entry(1, 1));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert(make_entry(1, 1));
  EXPECT_FALSE(cache.lookup(CacheKey{1, 1}).has_value());
  EXPECT_EQ(cache.lookup_warm(1, 16, 1), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCache, WarmDonorIsTheHintedEntryOnly) {
  ResultCache cache(1 << 20);
  CacheEntry hinted = make_entry(10, 1);
  hinted.checkpoint = make_checkpoint();
  CacheEntry other = make_entry(11, 1);
  other.checkpoint = make_checkpoint();
  cache.insert(std::move(hinted));
  cache.insert(std::move(other));  // MRU

  // The hinted entry donates even though entry 11 is fresher.
  auto donor = cache.lookup_warm(/*config_fp=*/1, /*n=*/16, /*hint=*/10);
  ASSERT_NE(donor, nullptr);
  // No hint, or a hint naming no entry: cold start, even though two
  // same-shaped entries with checkpoints are cached.
  EXPECT_EQ(cache.lookup_warm(/*config_fp=*/1, /*n=*/16, /*hint=*/0),
            nullptr);
  EXPECT_EQ(cache.lookup_warm(/*config_fp=*/1, /*n=*/16, /*hint=*/99),
            nullptr);
  // The hinted entry under another config or shape: no donor.
  EXPECT_EQ(cache.lookup_warm(/*config_fp=*/2, /*n=*/16, /*hint=*/10),
            nullptr);
  EXPECT_EQ(cache.lookup_warm(/*config_fp=*/1, /*n=*/32, /*hint=*/10),
            nullptr);
}

TEST(ResultCache, WarmDonorRequiresCheckpoint) {
  ResultCache cache(1 << 20);
  cache.insert(make_entry(10, 1));  // no checkpoint attached
  EXPECT_EQ(cache.lookup_warm(1, 16, 10), nullptr);
}

// ThreadPool stress: concurrent lookups, inserts, and (capacity-forced)
// evictions.  Invariants checked under fire: no torn entries (labels are
// uniform per key), byte accounting never exceeds capacity, and the final
// bytes/entries agree with a full re-walk via lookups.
TEST(ResultCache, ConcurrentStressKeepsInvariants) {
  const std::uint64_t one = ResultCache::entry_bytes(make_entry(0, 1));
  ResultCache cache(6 * one);  // small: constant eviction pressure
  ThreadPool pool(4);
  constexpr int kKeys = 16;
  constexpr int kRounds = 400;
  std::atomic<int> torn{0};
  pool.run_workers([&](usize w) {
    for (int r = 0; r < kRounds; ++r) {
      const auto key = static_cast<std::uint64_t>((r + 3 * w) % kKeys);
      if (r % 3 == 0) {
        cache.insert(make_entry(key, 1, /*n=*/16,
                                static_cast<index_t>(key)));
      } else if (const auto hit = cache.lookup(CacheKey{key, 1})) {
        for (index_t label : hit->labels) {
          if (label != static_cast<index_t>(key)) torn.fetch_add(1);
        }
      }
      if (r % 7 == 0) {
        (void)cache.lookup_warm(1, 16, key);
      }
      if (cache.bytes() > 6 * one) torn.fetch_add(1);
    }
  });
  EXPECT_EQ(torn.load(), 0);
  EXPECT_LE(cache.bytes(), 6 * one);
  EXPECT_LE(cache.entries(), 6u);
  // Every surviving entry is whole and correctly keyed.
  std::uint64_t walked = 0;
  usize found = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (const auto hit = cache.lookup(CacheKey{key, 1})) {
      ++found;
      walked += ResultCache::entry_bytes(*hit);
      for (index_t label : hit->labels) {
        EXPECT_EQ(label, static_cast<index_t>(key));
      }
    }
  }
  EXPECT_EQ(found, cache.entries());
  EXPECT_EQ(walked, cache.bytes());
}

}  // namespace
}  // namespace fastsc::service
