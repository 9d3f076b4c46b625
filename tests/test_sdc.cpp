// Tests for the silent-data-corruption defense layer (DESIGN.md §14):
// an nth=1 bitflip sweep over every addressable corruption site the
// pipeline touches must be detected (sdc.detected advances) and recovered
// to the fault-free labels; checkpoint blobs and cached results are
// CRC32C-framed and rejected/evicted on a flip; and — the false-positive
// guard — clean runs report zero detections at every device count, so the
// checksums' tolerances hold with margin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/spectral.h"
#include "data/sbm.h"
#include "device/device.h"
#include "fault/fault.h"
#include "lanczos/irlm.h"
#include "metrics/external.h"
#include "obs/metrics.h"
#include "service/result_cache.h"

namespace fastsc {
namespace {

/// Every test leaves the process-wide injector disarmed; counters are
/// process-cumulative, so assertions compare deltas.
class SdcTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::injector().disarm();
    fault::injector().set_recording(false);
  }

  static std::uint64_t detected() {
    return obs::metrics().counter("sdc.detected").value();
  }
  static std::uint64_t counter(const char* name) {
    return obs::metrics().counter(name).value();
  }
};

core::SpectralConfig sdc_config() {
  core::SpectralConfig cfg;
  cfg.num_clusters = 3;
  cfg.backend = core::Backend::kDevice;
  cfg.seed = 42;
  // Every eigensolver wave stages x and y synchronously, so each bitflip
  // site (CSR values, staged device buffer, returned basis column) occurs
  // and the H2D transfer CRC is live; every k-means sweep assembles a
  // checksummed distance block.
  return cfg;
}

data::SbmGraph sdc_graph() {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(600, 3);
  p.p_in = 0.3;
  p.p_out = 0.01;
  p.seed = 17;
  return data::make_sbm(p);
}

// ---------------------------------------------------------------------------
// Tentpole sweep: discover every bitflip site the pipeline exercises
// (recording mode counts occurrences without firing), then flip a bit at
// each one's first occurrence and require detection + exact recovery.
// ---------------------------------------------------------------------------

TEST_F(SdcTest, BitflipSweepDetectsAndRecoversEverySite) {
  const data::SbmGraph g = sdc_graph();
  // Every device count runs the same checked wave, so the sweep must
  // detect and recover each site on a group of one and on sharded groups.
  for (const index_t nd : {1, 2, 4}) {
    SCOPED_TRACE("num_devices " + std::to_string(nd));
    core::SpectralConfig cfg = sdc_config();
    cfg.num_devices = nd;

    fault::injector().set_recording(true);
    const core::SpectralResult clean = core::spectral_cluster_graph(g.w, cfg);
    std::vector<std::string> sites;
    for (const auto& [site, stats] : fault::injector().sites_seen()) {
      if (site.rfind("bitflip.", 0) == 0) sites.push_back(site);
    }
    fault::injector().set_recording(false);
    ASSERT_EQ(clean.labels.size(), 600u);
    EXPECT_EQ(clean.integrity.detected, 0u);

    // The live-payload site family must actually be reachable in this
    // pipeline shape — an empty sweep would vacuously pass.
    for (const char* must : {"bitflip.csr.values", "bitflip.device.buffer",
                             "bitflip.basis.column", "bitflip.kmeans.dist"}) {
      EXPECT_NE(std::find(sites.begin(), sites.end(), must), sites.end())
          << "site " << must << " never occurred; the sweep lost coverage";
    }

    for (const std::string& site : sites) {
      SCOPED_TRACE(site);
      const std::uint64_t before = detected();
      core::SpectralConfig faulted = cfg;
      faulted.faults = fault::FaultPlan::parse("site=" + site + ",nth=1");
      const core::SpectralResult r =
          core::spectral_cluster_graph(g.w, faulted);
      // Detected somewhere (ABFT checksum, sentinel, or CRC frame)...
      EXPECT_GE(detected(), before + 1) << "flip at " << site << " was silent";
      // ...and recovered: the recompute / re-solve ladder lands on the same
      // partition as the fault-free run, without leaving the group.
      ASSERT_EQ(r.labels.size(), clean.labels.size());
      EXPECT_DOUBLE_EQ(metrics::adjusted_rand_index(r.labels, clean.labels),
                       1.0);
      for (const core::DegradationEvent& e : r.degradation.events) {
        EXPECT_NE(e.action, "single-device") << e.reason;
      }
    }
  }
}

TEST_F(SdcTest, BasisColumnFlipIsRecomputedInPlace) {
  const data::SbmGraph g = sdc_graph();
  core::SpectralConfig cfg = sdc_config();
  cfg.faults = fault::FaultPlan::parse("site=bitflip.basis.column,nth=1");
  const std::uint64_t recomputed_before = counter("sdc.recomputed");
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
  // A one-shot in-flight flip dies at the cheap rung of the ladder: the
  // wave is recomputed in place, no degradation event is taken.
  EXPECT_GE(counter("sdc.recomputed"), recomputed_before + 1);
  EXPECT_FALSE(r.degradation.degraded);
  EXPECT_GE(r.integrity.detected, 1u);
  EXPECT_GE(r.integrity.recomputed, 1u);
}

TEST_F(SdcTest, KmeansDistFlipIsRecomputedInPlaceOnTwoDevices) {
  const data::SbmGraph g = sdc_graph();
  core::SpectralConfig cfg = sdc_config();
  cfg.num_devices = 2;
  const core::SpectralResult clean = core::spectral_cluster_graph(g.w, cfg);
  ASSERT_GT(clean.device_counters.bytes_d2d, 0u);  // really sharded

  cfg.faults = fault::FaultPlan::parse("site=bitflip.kmeans.dist,nth=1");
  const std::uint64_t detected_before = detected();
  const std::uint64_t recomputed_before = counter("sdc.recomputed");
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
  // The flipped distance block fails its checksum and is reassembled in
  // place: no degradation rung, and the labels are the clean run's.
  EXPECT_EQ(detected(), detected_before + 1);
  EXPECT_EQ(counter("sdc.recomputed"), recomputed_before + 1);
  EXPECT_GE(counter("sdc.detected.gemm.kmeans_dist"), 1u);
  EXPECT_EQ(r.integrity.detected, 1u);
  EXPECT_EQ(r.integrity.recomputed, 1u);
  EXPECT_FALSE(r.degradation.degraded);
  EXPECT_EQ(r.labels, clean.labels);
}

TEST_F(SdcTest, PersistentCsrCorruptionEscalatesToResolve) {
  const data::SbmGraph g = sdc_graph();
  for (const index_t nd : {1, 2}) {
    SCOPED_TRACE("num_devices " + std::to_string(nd));
    core::SpectralConfig cfg = sdc_config();
    cfg.num_devices = nd;
    const core::SpectralResult clean = core::spectral_cluster_graph(g.w, cfg);
    cfg.faults = fault::FaultPlan::parse("site=bitflip.csr.values,nth=1");
    const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
    // The stored matrix itself is corrupt, so the in-place recompute hits
    // the same flipped value and the solve escalates to a ladder rung that
    // rebuilds the operator from the unmodified similarity matrix — the
    // same operator, bit for bit, as the clean run's.
    EXPECT_TRUE(r.degradation.degraded);
    bool saw_sync = false;
    for (const core::DegradationEvent& e : r.degradation.events) {
      if (e.action == "device-sync") saw_sync = true;
    }
    EXPECT_TRUE(saw_sync);
    ASSERT_EQ(r.eigenvalues.size(), clean.eigenvalues.size());
    EXPECT_EQ(std::memcmp(r.eigenvalues.data(), clean.eigenvalues.data(),
                          clean.eigenvalues.size() * sizeof(real)),
              0);
    ASSERT_EQ(r.embedding.size(), clean.embedding.size());
    EXPECT_EQ(std::memcmp(r.embedding.data(), clean.embedding.data(),
                          clean.embedding.size() * sizeof(real)),
              0);
    EXPECT_EQ(r.labels, clean.labels);
  }
}

TEST_F(SdcTest, DisablingSdcSkipsTheChecks) {
  const data::SbmGraph g = sdc_graph();
  core::SpectralConfig cfg = sdc_config();
  cfg.sdc.enabled = false;
  const std::uint64_t checks_before = counter("sdc.checks");
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
  EXPECT_EQ(counter("sdc.checks"), checks_before);
  EXPECT_EQ(r.integrity.checks, 0u);
  EXPECT_EQ(r.labels.size(), 600u);
}

// ---------------------------------------------------------------------------
// Integrity at rest: checkpoint CRC frame and result-cache seal.
// ---------------------------------------------------------------------------

lanczos::LanczosCheckpoint make_checkpoint() {
  lanczos::LanczosCheckpoint cp;
  cp.n = 48;
  cp.nev = 4;
  cp.ncv = 12;
  cp.which = 1;
  cp.j = 6;
  cp.nkept = 6;
  cp.beta_last = 0.25;
  cp.v.resize(static_cast<usize>(cp.ncv + 1) * static_cast<usize>(cp.n));
  for (usize i = 0; i < cp.v.size(); ++i) {
    cp.v[i] = 1.0 / static_cast<real>(i + 1);
  }
  cp.t.assign(static_cast<usize>(cp.ncv) * static_cast<usize>(cp.ncv), 0.5);
  cp.restart_count = 3;
  cp.matvec_count = 41;
  return cp;
}

TEST_F(SdcTest, CheckpointBlobRoundTripsUnderCrcFrame) {
  const lanczos::LanczosCheckpoint cp = make_checkpoint();
  std::stringstream ss;
  cp.save(ss);
  const lanczos::LanczosCheckpoint back = lanczos::LanczosCheckpoint::load(ss);
  EXPECT_EQ(back.n, cp.n);
  EXPECT_EQ(back.v, cp.v);
  EXPECT_EQ(back.t, cp.t);
  EXPECT_EQ(back.payload_crc(), cp.payload_crc());
}

TEST_F(SdcTest, CheckpointBlobFlipIsRejectedAtLoad) {
  const lanczos::LanczosCheckpoint cp = make_checkpoint();
  std::stringstream ss;
  cp.save(ss);
  fault::ArmScope scope(
      fault::FaultPlan::parse("site=bitflip.checkpoint.blob,nth=1"));
  const std::uint64_t before = detected();
  EXPECT_THROW((void)lanczos::LanczosCheckpoint::load(ss),
               device::DataIntegrityError);
  EXPECT_EQ(detected(), before + 1);
  EXPECT_GE(counter("sdc.detected.checkpoint.blob"), 1u);
}

service::CacheEntry make_entry(std::uint64_t graph_fp,
                               bool with_checkpoint) {
  service::CacheEntry e;
  e.labels = {0, 1, 2, 0, 1, 2};
  e.eigenvalues = {0.1, 0.2, 0.3};
  e.n = 6;
  e.k = 3;
  e.graph_fp = graph_fp;
  e.config_fp = 222;
  if (with_checkpoint) {
    e.checkpoint = std::make_shared<const lanczos::LanczosCheckpoint>(
        make_checkpoint());
    e.n = e.checkpoint->n;
  }
  return e;
}

TEST_F(SdcTest, CacheLookupVerifiesSealAndEvictsOnFlip) {
  service::ResultCache cache(1 << 20);
  cache.insert(make_entry(111, /*with_checkpoint=*/false));
  ASSERT_TRUE(cache.lookup({111, 222}).has_value());  // clean: seal holds

  fault::ArmScope scope(
      fault::FaultPlan::parse("site=bitflip.cache.entry,nth=1"));
  const std::uint64_t before = detected();
  const std::uint64_t evicted_before = counter("cache.integrity_evicted");
  // Corrupted lookup: the entry is dropped and the caller sees a miss, so
  // the job falls through to a cold solve.
  EXPECT_FALSE(cache.lookup({111, 222}).has_value());
  EXPECT_EQ(detected(), before + 1);
  EXPECT_EQ(counter("cache.integrity_evicted"), evicted_before + 1);
  EXPECT_GE(counter("sdc.detected.cache.entry"), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  // The rule is exhausted; the entry is simply gone now.
  EXPECT_FALSE(cache.lookup({111, 222}).has_value());
}

TEST_F(SdcTest, WarmDonorLookupSkipsAndEvictsCorruptEntry) {
  service::ResultCache cache(1 << 20);
  cache.insert(make_entry(111, /*with_checkpoint=*/true));
  ASSERT_NE(cache.lookup_warm(222, 48, 111), nullptr);  // clean donor

  fault::ArmScope scope(
      fault::FaultPlan::parse("site=bitflip.cache.entry,nth=1"));
  const std::uint64_t evicted_before = counter("cache.integrity_evicted");
  // The hinted donor fails its seal: skipped, evicted, and with no other
  // candidate the warm lookup reports none — the solve cold-starts.
  EXPECT_EQ(cache.lookup_warm(222, 48, 111), nullptr);
  EXPECT_EQ(counter("cache.integrity_evicted"), evicted_before + 1);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST_F(SdcTest, WarmDonorCorruptHintColdStartsDespiteIntactEntry) {
  service::ResultCache cache(1 << 20);
  cache.insert(make_entry(111, /*with_checkpoint=*/true));
  cache.insert(make_entry(333, /*with_checkpoint=*/true));
  // nth=1: the hinted donor fails its seal and is evicted.  The intact
  // same-shaped entry 333 belongs to another graph, so it is not handed out
  // in its place: the solve cold-starts.
  fault::ArmScope scope(
      fault::FaultPlan::parse("site=bitflip.cache.entry,nth=1"));
  EXPECT_EQ(cache.lookup_warm(222, 48, 111), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_TRUE(cache.lookup({333, 222}).has_value());
}

// ---------------------------------------------------------------------------
// False-positive guard: with no faults armed, no detector may trip at any
// device count — the tolerances must absorb legitimate accumulation
// roundoff.
// ---------------------------------------------------------------------------

TEST_F(SdcTest, CleanRunsReportZeroDetectionsAcrossRungsAndDevices) {
  const data::SbmGraph g = sdc_graph();
  for (const index_t nd : {1, 2, 4}) {
    SCOPED_TRACE("devices " + std::to_string(nd));
    core::SpectralConfig cfg = sdc_config();
    cfg.num_devices = nd;
    const std::uint64_t before = detected();
    const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
    EXPECT_EQ(detected(), before) << "false positive on a clean run";
    EXPECT_EQ(r.integrity.detected, 0u);
    EXPECT_EQ(r.labels.size(), 600u);
  }
}

TEST_F(SdcTest, CleanPipelinedRunReportsZeroDetections) {
  // A clean two-device run: the k-means distance checksum runs on both
  // shards every sweep and is counted in the run's integrity report.
  const data::SbmGraph g = sdc_graph();
  core::SpectralConfig cfg = sdc_config();
  cfg.num_devices = 2;
  const std::uint64_t before = detected();
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
  EXPECT_EQ(detected(), before);
  EXPECT_EQ(r.integrity.detected, 0u);
  cfg.sdc.abft_kmeans = false;
  const core::SpectralResult no_km = core::spectral_cluster_graph(g.w, cfg);
  EXPECT_EQ(no_km.labels, r.labels);
  ASSERT_GE(r.kmeans_iterations, 1);
  EXPECT_EQ(r.integrity.checks - no_km.integrity.checks,
            2u * static_cast<std::uint64_t>(r.kmeans_iterations));
}

TEST_F(SdcTest, StagedCrcDetectsFlipsAcrossALongVector) {
  // n = 9000 scalars of staged x.  Six flips at successive waves land on
  // pseudo-random elements across the vector; each must fail the staged
  // CRC and re-upload clean.
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(9000, 3);
  p.p_in = 0.01;
  p.p_out = 0.0005;
  p.seed = 19;
  const data::SbmGraph g = data::make_sbm(p);
  const core::SpectralConfig cfg = sdc_config();
  const core::SpectralResult clean = core::spectral_cluster_graph(g.w, cfg);
  ASSERT_EQ(clean.integrity.detected, 0u);
  for (int nth = 1; nth <= 6; ++nth) {
    SCOPED_TRACE("nth " + std::to_string(nth));
    core::SpectralConfig faulted = cfg;
    faulted.faults = fault::FaultPlan::parse(
        "site=bitflip.device.buffer,nth=" + std::to_string(nth));
    const std::uint64_t before = counter("sdc.detected.device.buffer");
    const core::SpectralResult r = core::spectral_cluster_graph(g.w, faulted);
    EXPECT_EQ(counter("sdc.detected.device.buffer"), before + 1);
    EXPECT_EQ(r.integrity.detected, 1u);
    EXPECT_EQ(r.labels, clean.labels);
  }
}

}  // namespace
}  // namespace fastsc
