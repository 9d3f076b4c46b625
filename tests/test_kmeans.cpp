#include "kmeans/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kmeans/lloyd.h"

namespace fastsc::kmeans {
namespace {

/// Well-separated Gaussian blobs with ground-truth labels.
struct Blobs {
  std::vector<real> x;  // n x d
  std::vector<index_t> truth;
  index_t n, d, k;
};

Blobs make_blobs(index_t per_cluster, index_t k, index_t d, real spread,
                 std::uint64_t seed) {
  Blobs b;
  b.k = k;
  b.d = d;
  b.n = per_cluster * k;
  Rng rng(seed);
  std::vector<real> centers(static_cast<usize>(k) * static_cast<usize>(d));
  for (index_t c = 0; c < k; ++c) {
    for (index_t l = 0; l < d; ++l) {
      centers[static_cast<usize>(c * d + l)] =
          static_cast<real>(c * 10) + rng.uniform(-1, 1);
    }
  }
  b.x.resize(static_cast<usize>(b.n) * static_cast<usize>(d));
  b.truth.resize(static_cast<usize>(b.n));
  for (index_t i = 0; i < b.n; ++i) {
    const index_t c = i / per_cluster;
    b.truth[static_cast<usize>(i)] = c;
    for (index_t l = 0; l < d; ++l) {
      b.x[static_cast<usize>(i * d + l)] =
          centers[static_cast<usize>(c * d + l)] + spread * rng.normal();
    }
  }
  return b;
}

/// True iff predicted is a relabeling of truth (perfect clustering).
bool partitions_equal(const std::vector<index_t>& a,
                      const std::vector<index_t>& b) {
  std::map<index_t, index_t> fwd, bwd;
  for (usize i = 0; i < a.size(); ++i) {
    if (fwd.count(a[i]) && fwd[a[i]] != b[i]) return false;
    if (bwd.count(b[i]) && bwd[b[i]] != a[i]) return false;
    fwd[a[i]] = b[i];
    bwd[b[i]] = a[i];
  }
  return true;
}

class KmeansDevice : public ::testing::TestWithParam<int> {
 protected:
  device::DeviceContext ctx_{static_cast<usize>(GetParam())};
};

TEST_P(KmeansDevice, RecoversWellSeparatedBlobs) {
  const Blobs b = make_blobs(40, 4, 3, 0.2, 7);
  KmeansConfig cfg;
  cfg.k = 4;
  cfg.seed = 11;
  const KmeansResult r = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(partitions_equal(r.labels, b.truth));
}

TEST_P(KmeansDevice, LabelsInRangeAndSized) {
  const Blobs b = make_blobs(20, 3, 2, 0.5, 13);
  KmeansConfig cfg;
  cfg.k = 3;
  const KmeansResult r = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  ASSERT_EQ(r.labels.size(), static_cast<usize>(b.n));
  for (index_t l : r.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
  ASSERT_EQ(r.centroids.size(), static_cast<usize>(3 * b.d));
}

TEST_P(KmeansDevice, KEqualsOnePutsEverythingTogether) {
  const Blobs b = make_blobs(25, 2, 2, 1.0, 17);
  KmeansConfig cfg;
  cfg.k = 1;
  const KmeansResult r = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  for (index_t l : r.labels) EXPECT_EQ(l, 0);
  // The single centroid is the global mean.
  for (index_t l = 0; l < b.d; ++l) {
    real mean = 0;
    for (index_t i = 0; i < b.n; ++i) {
      mean += b.x[static_cast<usize>(i * b.d + l)];
    }
    mean /= static_cast<real>(b.n);
    EXPECT_NEAR(r.centroids[static_cast<usize>(l)], mean, 1e-9);
  }
}

TEST_P(KmeansDevice, KEqualsNSeparatesEverything) {
  const Blobs b = make_blobs(1, 6, 2, 0.0, 19);
  KmeansConfig cfg;
  cfg.k = 6;
  const KmeansResult r = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  std::set<index_t> used(r.labels.begin(), r.labels.end());
  EXPECT_EQ(used.size(), 6u);
  EXPECT_NEAR(r.objective, 0.0, 1e-12);
}

TEST_P(KmeansDevice, MatchesLloydObjectiveQuality) {
  const Blobs b = make_blobs(30, 5, 4, 0.4, 23);
  KmeansConfig cfg;
  cfg.k = 5;
  cfg.seed = 3;
  const KmeansResult dev = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  const KmeansResult host = kmeans_lloyd_host(b.x.data(), b.n, b.d, cfg);
  // Both should land near the planted optimum; allow small slack.
  EXPECT_LT(dev.objective, host.objective * 1.5 + 1e-9);
  EXPECT_LT(host.objective, dev.objective * 1.5 + 1e-9);
}

TEST_P(KmeansDevice, RespectsMaxIters) {
  const Blobs b = make_blobs(50, 4, 2, 2.0, 29);  // overlapping blobs
  KmeansConfig cfg;
  cfg.k = 4;
  cfg.max_iters = 1;
  const KmeansResult r = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  EXPECT_LE(r.iterations, 1);
}

TEST_P(KmeansDevice, DeterministicForFixedSeed) {
  const Blobs b = make_blobs(20, 3, 3, 0.6, 31);
  KmeansConfig cfg;
  cfg.k = 3;
  cfg.seed = 99;
  const KmeansResult r1 = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  const KmeansResult r2 = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  EXPECT_EQ(r1.labels, r2.labels);
  EXPECT_DOUBLE_EQ(r1.objective, r2.objective);
}

TEST_P(KmeansDevice, RandomSeedingAlsoWorks) {
  const Blobs b = make_blobs(40, 3, 2, 0.2, 37);
  KmeansConfig cfg;
  cfg.k = 3;
  cfg.seeding = Seeding::kRandom;
  const KmeansResult r = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  EXPECT_TRUE(r.converged);
  std::set<index_t> used(r.labels.begin(), r.labels.end());
  EXPECT_GE(used.size(), 2u);
}

TEST_P(KmeansDevice, RestartsNeverWorsenObjective) {
  const Blobs b = make_blobs(20, 6, 2, 1.5, 59);  // overlapping: seeds matter
  KmeansConfig cfg;
  cfg.k = 6;
  cfg.seed = 2;
  cfg.seeding = Seeding::kRandom;
  const KmeansResult one = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  cfg.restarts = 6;
  const KmeansResult six = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  EXPECT_LE(six.objective, one.objective + 1e-9);
}

TEST_P(KmeansDevice, RejectsNonFiniteData) {
  std::vector<real> x(20, 0.5);
  x[3] = std::numeric_limits<real>::quiet_NaN();
  KmeansConfig cfg;
  cfg.k = 2;
  EXPECT_THROW((void)kmeans_device(ctx_, x.data(), 10, 2, cfg),
               std::invalid_argument);
}

TEST_P(KmeansDevice, RejectsBadArguments) {
  const Blobs b = make_blobs(5, 2, 2, 0.1, 41);
  KmeansConfig cfg;
  cfg.k = 0;
  EXPECT_THROW((void)kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg),
               std::invalid_argument);
  cfg.k = b.n + 1;
  EXPECT_THROW((void)kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg),
               std::invalid_argument);
}

TEST_P(KmeansDevice, TransfersDataAndLabels) {
  const Blobs b = make_blobs(10, 2, 3, 0.1, 43);
  const auto before = ctx_.counters();
  KmeansConfig cfg;
  cfg.k = 2;
  (void)kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  // Algorithm 4 step 1 (H2D of V) and step 4 (D2H of labels).
  EXPECT_GT(ctx_.counters().bytes_h2d, before.bytes_h2d);
  EXPECT_GT(ctx_.counters().bytes_d2h, before.bytes_d2h);
}

TEST_P(KmeansDevice, ChecksumVerifiesEverySweep) {
  const Blobs b = make_blobs(30, 4, 3, 0.5, 47);
  KmeansConfig cfg;
  cfg.k = 4;
  const KmeansResult r = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  EXPECT_EQ(r.abft_checks, static_cast<std::uint64_t>(r.iterations));
  EXPECT_EQ(r.abft_detected, 0u);
  cfg.abft = false;
  const KmeansResult off = kmeans_device(ctx_, b.x.data(), b.n, b.d, cfg);
  EXPECT_EQ(off.abft_checks, 0u);
  EXPECT_EQ(off.labels, r.labels);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, KmeansDevice, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// The group sweep: one blocked Lloyd sweep for every device count.

/// Cuts of [0, n) into `parts` pieces on kBlockRows boundaries (trailing
/// pieces may be empty).
std::vector<index_t> block_cuts(index_t n, index_t parts) {
  const index_t blocks = (n + kBlockRows - 1) / kBlockRows;
  std::vector<index_t> cuts(static_cast<usize>(parts) + 1, n);
  for (index_t p = 0; p < parts; ++p) {
    cuts[static_cast<usize>(p)] =
        std::min(n, (blocks * p + parts - 1) / parts * kBlockRows);
  }
  return cuts;
}

TEST(KmeansGroup, BitwiseAcrossDeviceAndWorkerCounts) {
  // Overlapping blobs: many near-ties, a dozen sweeps, and an empty cluster
  // to repair (k exceeds the planted count).
  const Blobs b = make_blobs(260, 5, 6, 3.0, 61);
  KmeansConfig cfg;
  cfg.k = 8;
  cfg.seed = 5;
  device::DeviceContext ctx1(1);
  const KmeansResult base = kmeans_device(ctx1, b.x.data(), b.n, b.d, cfg);
  ASSERT_GT(base.iterations, 2);
  for (const usize devices : {1u, 2u, 4u, 8u}) {
    for (const usize workers : {1u, 3u, 4u, 8u}) {
      SCOPED_TRACE("devices " + std::to_string(devices) + " workers " +
                   std::to_string(workers));
      device::DeviceContext root(workers);
      device::DeviceGroup group(root, devices);
      const std::vector<index_t> cuts =
          block_cuts(b.n, static_cast<index_t>(devices));
      const KmeansResult r =
          kmeans_group(group, cuts, b.x.data(), b.n, b.d, cfg);
      ASSERT_EQ(r.labels.size(), base.labels.size());
      EXPECT_EQ(std::memcmp(r.labels.data(), base.labels.data(),
                            base.labels.size() * sizeof(index_t)),
                0);
      ASSERT_EQ(r.centroids.size(), base.centroids.size());
      EXPECT_EQ(std::memcmp(r.centroids.data(), base.centroids.data(),
                            base.centroids.size() * sizeof(real)),
                0);
      EXPECT_EQ(std::memcmp(&r.objective, &base.objective, sizeof(real)), 0);
      EXPECT_EQ(r.iterations, base.iterations);
      // One distance-block checksum per sweep on every non-empty device.
      index_t busy = 0;
      for (usize p = 0; p < devices; ++p) busy += cuts[p + 1] > cuts[p];
      EXPECT_EQ(r.abft_checks,
                static_cast<std::uint64_t>(r.iterations * busy));
    }
  }
}

TEST(KmeansGroup, CentroidTrafficCrossesThePeerLinks) {
  const Blobs b = make_blobs(200, 4, 3, 0.3, 67);
  KmeansConfig cfg;
  cfg.k = 4;
  const index_t devices = 3;
  device::DeviceContext root(1);
  device::DeviceGroup group(root, devices);
  const std::vector<index_t> cuts = block_cuts(b.n, devices);
  const KmeansResult r = kmeans_group(group, cuts, b.x.data(), b.n, b.d, cfg);
  ASSERT_TRUE(r.converged);
  // Per sweep: the k x d centroids broadcast root -> each peer, and every
  // peer's block partials (k*d sums, k counts, changed, inertia) ship back.
  const usize stride = static_cast<usize>(cfg.k * b.d + cfg.k + 2);
  usize peer_blocks = 0;
  for (index_t p = 1; p < devices; ++p) {
    peer_blocks += static_cast<usize>(
        (cuts[static_cast<usize>(p) + 1] - cuts[static_cast<usize>(p)] +
         kBlockRows - 1) /
        kBlockRows);
  }
  const auto sweeps = static_cast<usize>(r.iterations);
  const usize want =
      sweeps * sizeof(real) *
      ((devices - 1) * static_cast<usize>(cfg.k * b.d) + peer_blocks * stride);
  EXPECT_EQ(group.rollup_counters().bytes_d2d, want);
}

TEST(KmeansGroup, RejectsCutsOffTheBlockGrid) {
  const Blobs b = make_blobs(200, 4, 2, 0.3, 71);
  KmeansConfig cfg;
  cfg.k = 4;
  device::DeviceContext root(1);
  device::DeviceGroup group(root, 2);
  const std::vector<index_t> off_grid{0, 300, b.n};
  EXPECT_THROW((void)kmeans_group(group, off_grid, b.x.data(), b.n, b.d, cfg),
               std::invalid_argument);
  const std::vector<index_t> too_few{0, b.n};
  EXPECT_THROW((void)kmeans_group(group, too_few, b.x.data(), b.n, b.d, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace fastsc::kmeans
