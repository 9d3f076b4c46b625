#include "kmeans/seeding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "device/device.h"

namespace fastsc::kmeans {
namespace {

TEST(RandomSeeds, WithoutReplacement) {
  Rng rng(5);
  for (int rep = 0; rep < 20; ++rep) {
    const auto seeds = random_seeds_host(10, 10, rng);
    std::set<index_t> unique(seeds.begin(), seeds.end());
    EXPECT_EQ(unique.size(), 10u);
  }
}

TEST(RandomSeeds, InRange) {
  Rng rng(7);
  const auto seeds = random_seeds_host(100, 5, rng);
  ASSERT_EQ(seeds.size(), 5u);
  for (index_t s : seeds) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 100);
  }
}

TEST(RandomSeeds, RejectsBadK) {
  Rng rng(1);
  EXPECT_THROW((void)random_seeds_host(5, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)random_seeds_host(5, 6, rng), std::invalid_argument);
}

std::vector<real> two_far_groups() {
  // Points 0-3 near origin, points 4-7 near (100).
  std::vector<real> x;
  for (int i = 0; i < 4; ++i) x.push_back(0.1 * i);
  for (int i = 0; i < 4; ++i) x.push_back(100 + 0.1 * i);
  return x;
}

TEST(KmeansppHost, SpreadsSeedsAcrossFarGroups) {
  const auto x = two_far_groups();
  // With k=2, k-means++ should essentially always pick one seed per group.
  int split = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const auto seeds = kmeanspp_seeds_host(x.data(), 8, 1, 2, rng);
    const bool a = seeds[0] < 4;
    const bool b = seeds[1] < 4;
    if (a != b) ++split;
  }
  EXPECT_GE(split, 48);  // D^2 weighting: cross-group pick ~certain
}

TEST(KmeansppHost, HandlesDuplicatePoints) {
  std::vector<real> x(20, 3.14);  // all identical
  Rng rng(3);
  const auto seeds = kmeanspp_seeds_host(x.data(), 20, 1, 4, rng);
  EXPECT_EQ(seeds.size(), 4u);  // falls back to uniform, still returns k
}

TEST(KmeansppHost, FirstSeedUniform) {
  std::vector<real> x{0, 1, 2, 3};
  std::set<index_t> seen;
  for (std::uint64_t s = 0; s < 200; ++s) {
    Rng rng(s);
    seen.insert(kmeanspp_seeds_host(x.data(), 4, 1, 1, rng)[0]);
  }
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace fastsc::kmeans
