// Tests for the deterministic fault-injection harness: plan parsing and
// round-tripping, nth/count windows and probability rules under a fixed
// seed, prefix matching, recording-mode site discovery, ArmScope nesting,
// and the device-runtime integration (injected OOM carries its site, the
// bounded transfer retry absorbs transient faults and meters each transfer
// exactly once).
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/spectral.h"
#include "data/sbm.h"
#include "device/device.h"
#include "metrics/external.h"

namespace fastsc::fault {
namespace {

/// Every test leaves the process-wide injector disarmed.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    injector().disarm();
    injector().set_recording(false);
  }
};

// ---------------------------------------------------------------------------
// FaultPlan parsing.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ParseSingleClause) {
  const FaultPlan p = FaultPlan::parse("site=device.h2d,nth=3");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].site, "device.h2d");
  EXPECT_EQ(p.rules[0].nth, 3u);
  EXPECT_EQ(p.rules[0].count, 1u);
  EXPECT_EQ(p.seed, 42u);
}

TEST_F(FaultTest, ParseMultiClauseWithSeed) {
  const FaultPlan p = FaultPlan::parse(
      "site=device.h2d,nth=2,count=4;site=lanczos.convergence,p=0.5,count=10;"
      "seed=7");
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.rules[0].nth, 2u);
  EXPECT_EQ(p.rules[0].count, 4u);
  EXPECT_EQ(p.rules[1].nth, 0u);  // p= selects probability mode
  EXPECT_DOUBLE_EQ(p.rules[1].probability, 0.5);
  EXPECT_EQ(p.seed, 7u);
}

TEST_F(FaultTest, ParseToStringRoundTrips) {
  const FaultPlan p = FaultPlan::parse(
      "site=device.*,nth=1,count=0;site=copy.d2h,p=0.25;seed=9");
  const FaultPlan q = FaultPlan::parse(p.to_string());
  ASSERT_EQ(q.rules.size(), p.rules.size());
  EXPECT_EQ(q.seed, p.seed);
  for (usize i = 0; i < p.rules.size(); ++i) {
    EXPECT_EQ(q.rules[i].site, p.rules[i].site);
    EXPECT_EQ(q.rules[i].nth, p.rules[i].nth);
    EXPECT_EQ(q.rules[i].count, p.rules[i].count);
    EXPECT_DOUBLE_EQ(q.rules[i].probability, p.rules[i].probability);
  }
}

TEST_F(FaultTest, ParseEmptyAndSeedOnly) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  const FaultPlan p = FaultPlan::parse("seed=123");
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.seed, 123u);
}

TEST_F(FaultTest, ParseMalformedThrows) {
  EXPECT_THROW((void)FaultPlan::parse("device.h2d"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site="), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=x,nth=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=x,p=1.5"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=x,nth=2,p=0.5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=x,nth=0"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("nth=2"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("site=x,bogus=1"),
               std::invalid_argument);
}

TEST_F(FaultTest, PrefixMatching) {
  FaultRule r;
  r.site = "device.*";
  EXPECT_TRUE(r.matches_site("device.alloc"));
  EXPECT_TRUE(r.matches_site("device.h2d"));
  EXPECT_FALSE(r.matches_site("copy.h2d"));
  r.site = "device.h2d";
  EXPECT_TRUE(r.matches_site("device.h2d"));
  EXPECT_FALSE(r.matches_site("device.h2d2"));
}

// ---------------------------------------------------------------------------
// Injector semantics.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DisabledPathIsInactive) {
  EXPECT_FALSE(active());
  EXPECT_FALSE(triggered("device.h2d"));
  // Nothing is recorded while inactive.
  EXPECT_TRUE(injector().sites_seen().empty() ||
              injector().sites_seen().find("device.h2d") ==
                  injector().sites_seen().end());
}

TEST_F(FaultTest, NthWindowFiresExactly) {
  injector().arm(FaultPlan::parse("site=x,nth=2,count=2"));
  EXPECT_TRUE(active());
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) fired.push_back(triggered("x"));
  EXPECT_EQ(fired, (std::vector<bool>{false, true, true, false, false}));
  EXPECT_EQ(injector().injected_total(), 2u);
  const auto sites = injector().sites_seen();
  ASSERT_TRUE(sites.contains("x"));
  EXPECT_EQ(sites.at("x").occurrences, 5u);
  EXPECT_EQ(sites.at("x").triggers, 2u);
}

TEST_F(FaultTest, UnboundedCountFiresFromNthOnwards) {
  injector().arm(FaultPlan::parse("site=x,nth=3,count=0"));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(triggered("x"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, true}));
}

TEST_F(FaultTest, SitesAreCountedIndependently) {
  injector().arm(FaultPlan::parse("site=x,nth=2"));
  EXPECT_FALSE(triggered("y"));  // occurrences of y do not advance x
  EXPECT_FALSE(triggered("x"));
  EXPECT_FALSE(triggered("y"));
  EXPECT_TRUE(triggered("x"));
}

TEST_F(FaultTest, RearmResetsCounters) {
  const FaultPlan plan = FaultPlan::parse("site=x,nth=1");
  injector().arm(plan);
  EXPECT_TRUE(triggered("x"));
  EXPECT_FALSE(triggered("x"));  // count=1 exhausted
  injector().arm(plan);          // same plan, fresh counters
  EXPECT_TRUE(triggered("x"));
  EXPECT_EQ(injector().injected_total(), 1u);
}

TEST_F(FaultTest, ProbabilityIsDeterministicUnderSeed) {
  const FaultPlan plan = FaultPlan::parse("site=x,p=0.3,count=0;seed=11");
  auto run = [&] {
    injector().arm(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(triggered("x"));
    return fired;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);  // same plan + seed => same fault sequence
  int count = 0;
  for (bool f : a) count += f ? 1 : 0;
  EXPECT_GT(count, 20);   // ~60 expected; loose deterministic bounds
  EXPECT_LT(count, 120);

  // A different seed gives a different (but internally repeatable) sequence.
  FaultPlan other = plan;
  other.seed = 12;
  injector().arm(other);
  std::vector<bool> c;
  for (int i = 0; i < 200; ++i) c.push_back(triggered("x"));
  EXPECT_NE(a, c);
}

TEST_F(FaultTest, PrefixRuleHitsEverySiteUnderneath) {
  injector().arm(FaultPlan::parse("site=device.*,nth=1,count=0"));
  EXPECT_TRUE(triggered("device.alloc"));
  EXPECT_TRUE(triggered("device.h2d"));
  EXPECT_FALSE(triggered("copy.h2d"));
}

TEST_F(FaultTest, RecordingModeCountsWithoutFiring) {
  injector().set_recording(true);
  EXPECT_TRUE(active());
  EXPECT_FALSE(triggered("a"));
  EXPECT_FALSE(triggered("a"));
  EXPECT_FALSE(triggered("b"));
  const auto sites = injector().sites_seen();
  ASSERT_TRUE(sites.contains("a"));
  ASSERT_TRUE(sites.contains("b"));
  EXPECT_EQ(sites.at("a").occurrences, 2u);
  EXPECT_EQ(sites.at("a").triggers, 0u);
  EXPECT_EQ(sites.at("b").occurrences, 1u);
}

TEST_F(FaultTest, ArmScopeRestoresPreviousPlan) {
  injector().arm(FaultPlan::parse("site=outer,nth=1"));
  {
    ArmScope scope(FaultPlan::parse("site=inner,nth=1"));
    EXPECT_TRUE(triggered("inner"));
    EXPECT_FALSE(triggered("outer"));
  }
  // The outer plan is re-armed with fresh counters.
  EXPECT_TRUE(injector().armed());
  EXPECT_TRUE(triggered("outer"));
  injector().disarm();
  {
    ArmScope scope(FaultPlan::parse("site=inner,nth=1"));
    EXPECT_TRUE(injector().armed());
  }
  EXPECT_FALSE(injector().armed());  // nothing was armed before
  EXPECT_FALSE(active());
}

// ---------------------------------------------------------------------------
// Device-runtime integration.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, InjectedAllocFailureCarriesSite) {
  ArmScope scope(FaultPlan::parse("site=device.alloc,nth=1"));
  device::DeviceContext ctx(1);
  try {
    device::DeviceBuffer<double> buf(ctx, 64);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const device::DeviceOutOfMemory& e) {
    EXPECT_EQ(e.site(), "device.alloc");
    EXPECT_NE(std::string(e.what()).find("[site: device.alloc]"),
              std::string::npos);
  }
  // The rule is exhausted (count=1): the next allocation succeeds.
  device::DeviceBuffer<double> ok(ctx, 64);
  EXPECT_EQ(ok.size(), 64u);
}

TEST_F(FaultTest, TransferRetryAbsorbsTransientFaults) {
  ArmScope scope(FaultPlan::parse("site=device.h2d,nth=1,count=2"));
  device::DeviceContext ctx(1);
  device::DeviceBuffer<double> buf(ctx, 32);
  std::vector<double> host(32, 7.0);
  // Attempts 1 and 2 fail; attempt 3 succeeds inside the retry budget.
  buf.copy_from_host(std::span<const double>(host));
  const device::DeviceCounters c = ctx.counters_snapshot();
  EXPECT_EQ(c.transfer_retries, 2u);
  // The successful attempt meters exactly once (fault check precedes the
  // memcpy and the metering).
  EXPECT_EQ(c.transfers_h2d, 1u);
  EXPECT_EQ(c.bytes_h2d, 32u * sizeof(double));
  EXPECT_EQ(buf.to_host(), host);
}

TEST_F(FaultTest, TransferRetryExhaustionRethrowsWithSite) {
  // count=0: every d2h occurrence faults, so the retry budget (3) runs out.
  ArmScope scope(FaultPlan::parse("site=device.d2h,nth=1,count=0"));
  device::DeviceContext ctx(1);
  device::DeviceBuffer<double> buf(ctx, 8);
  std::vector<double> host(8);
  try {
    buf.copy_to_host(std::span<double>(host));
    FAIL() << "expected DeviceTransferError";
  } catch (const device::DeviceTransferError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(e.site(), "device.d2h");
  }
  const device::DeviceCounters c = ctx.counters_snapshot();
  EXPECT_EQ(c.transfer_retries,
            static_cast<usize>(ctx.transfer_retry().max_retries));
  EXPECT_EQ(c.transfers_d2h, 0u);  // no attempt ever metered
}

TEST_F(FaultTest, RetryPolicyIsConfigurable) {
  ArmScope scope(FaultPlan::parse("site=device.h2d,nth=1,count=0"));
  device::DeviceContext ctx(1);
  ctx.set_transfer_retry(device::TransferRetryPolicy{0, 1e-6});
  device::DeviceBuffer<double> buf(ctx, 4);
  std::vector<double> host(4, 1.0);
  // Zero retries: the first transient fault escalates immediately.
  EXPECT_THROW(buf.copy_from_host(std::span<const double>(host)),
               device::DeviceTransferError);
  EXPECT_EQ(ctx.counters_snapshot().transfer_retries, 0u);
}

TEST_F(FaultTest, RetryBackoffChargesVirtualTimeline) {
  ArmScope scope(FaultPlan::parse("site=device.h2d,nth=1,count=2"));
  device::DeviceContext ctx(1);
  ctx.set_transfer_retry(device::TransferRetryPolicy{3, 0.5});
  device::DeviceBuffer<double> buf(ctx, 4);
  std::vector<double> host(4, 1.0);
  buf.copy_from_host(std::span<const double>(host));
  // Two absorbed faults at backoff 0.5 then 1.0 virtual seconds.
  EXPECT_GE(ctx.virtual_now(), 1.5);
}

// ---------------------------------------------------------------------------
// Sharded-pipeline integration: transient faults on every d2d.* site are
// absorbed by the bounded retry, permanent ones walk the degradation ladder
// back to the single-device pipeline — labels are unperturbed either way.
// ---------------------------------------------------------------------------

core::SpectralConfig sharded_config(index_t num_devices) {
  core::SpectralConfig cfg;
  cfg.num_clusters = 3;
  cfg.backend = core::Backend::kDevice;
  cfg.num_devices = num_devices;
  cfg.seed = 42;
  return cfg;
}

data::SbmGraph sharded_graph() {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(600, 3);
  p.p_in = 0.3;
  p.p_out = 0.01;
  p.seed = 17;
  return data::make_sbm(p);
}

TEST_F(FaultTest, ShardedD2dFaultSweepRecoversExactly) {
  const data::SbmGraph g = sharded_graph();
  const core::SpectralResult clean =
      core::spectral_cluster_graph(g.w, sharded_config(2));
  ASSERT_EQ(clean.labels.size(), 600u);
  ASSERT_GT(clean.device_counters.bytes_d2d, 0u);

  for (const char* site : {"d2d.halo", "d2d.allreduce", "d2d.centroid_bcast",
                           "d2d.centroid_reduce"}) {
    SCOPED_TRACE(site);
    core::SpectralConfig cfg = sharded_config(2);
    cfg.faults = FaultPlan::parse(std::string("site=") + site + ",nth=1");
    const core::SpectralResult faulted =
        core::spectral_cluster_graph(g.w, cfg);
    // The single transient fault was absorbed by the transfer retry; the
    // data path is untouched, so the result is byte-identical.
    EXPECT_GE(faulted.device_counters.transfer_retries, 1u);
    EXPECT_FALSE(faulted.degradation.degraded);
    EXPECT_EQ(faulted.labels, clean.labels);
    EXPECT_DOUBLE_EQ(
        metrics::adjusted_rand_index(faulted.labels, clean.labels), 1.0);
  }
}

TEST_F(FaultTest, ShardedPermanentD2dFaultDegradesToSingleDevice) {
  const data::SbmGraph g = sharded_graph();
  const core::SpectralResult single =
      core::spectral_cluster_graph(g.w, sharded_config(1));

  // count=0: every halo copy faults, the retry budget runs out, and the
  // sharded driver's DeviceError reaches the dispatch ladder.
  core::SpectralConfig cfg = sharded_config(4);
  cfg.faults = FaultPlan::parse("site=d2d.halo,nth=1,count=0");
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
  EXPECT_TRUE(r.degradation.degraded);
  ASSERT_FALSE(r.degradation.events.empty());
  bool saw_fallback = false;
  for (const core::DegradationEvent& e : r.degradation.events) {
    if (e.action == "single-device") saw_fallback = true;
  }
  EXPECT_TRUE(saw_fallback);
  // The fallback rung is the untouched single-device pipeline.
  EXPECT_EQ(r.labels, single.labels);
  EXPECT_DOUBLE_EQ(metrics::adjusted_rand_index(r.labels, single.labels),
                   1.0);
}

// The deadline window spans both attempts of one call: a deadline that
// fired in the multi-device attempt is still fired (and its wrap-up still
// active) when the single-device rerun takes over.
TEST_F(FaultTest, ShardedPermanentD2dFaultKeepsAFiredDeadline) {
  const data::SbmGraph g = sharded_graph();
  const core::SpectralResult single =
      core::spectral_cluster_graph(g.w, sharded_config(1));

  core::SpectralConfig cfg = sharded_config(4);
  cfg.faults = FaultPlan::parse("site=d2d.halo,nth=1,count=0");
  cfg.budget.wall_ms = 1e9;  // armed; the trip below is the deadline
  cancel::governor().set_trip("lanczos.matvec", 1);
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg);
  cancel::governor().clear_trip();
  cancel::governor().reset_for_test();
  bool saw_fallback = false;
  for (const core::DegradationEvent& e : r.degradation.events) {
    if (e.action == "single-device") saw_fallback = true;
  }
  EXPECT_TRUE(saw_fallback);
  EXPECT_TRUE(r.budget.expired);
  EXPECT_TRUE(r.budget.anytime);
  EXPECT_EQ(r.labels, single.labels);
}

TEST_F(FaultTest, ShardedPermanentFaultWithDegradationDisabledThrows) {
  const data::SbmGraph g = sharded_graph();
  core::SpectralConfig cfg = sharded_config(2);
  cfg.degradation.enabled = false;
  cfg.faults = FaultPlan::parse("site=d2d.halo,nth=1,count=0");
  EXPECT_THROW((void)core::spectral_cluster_graph(g.w, cfg),
               device::DeviceError);
}

}  // namespace
}  // namespace fastsc::fault
