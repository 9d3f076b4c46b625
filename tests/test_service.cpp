#include "fastsc/service.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/fingerprint.h"
#include "core/spectral.h"
#include "data/social.h"
#include "metrics/external.h"
#include "service/trace_replay.h"

namespace fastsc {
namespace {

sparse::Coo make_fb(index_t n, index_t k, std::uint64_t seed) {
  return data::make_social_graph(data::fb_like_params(n, k, seed)).w;
}

core::SpectralConfig device_config(index_t k, std::uint64_t seed = 42) {
  core::SpectralConfig cfg;
  cfg.backend = core::Backend::kDevice;
  cfg.num_clusters = k;
  cfg.seed = seed;
  // A lean Krylov space: the cold solve pays several thick restarts, which
  // is what the warm-start acceptance below measures against.
  cfg.ncv = 16;
  return cfg;
}

Job make_job(sparse::Coo graph, index_t k, std::uint64_t seed = 42) {
  Job job;
  job.graph = std::move(graph);
  job.config = device_config(k, seed);
  return job;
}

TEST(Service, CompletesAndCachesIdenticalResubmit) {
  ServiceConfig scfg;
  scfg.workers = 2;
  Service svc(scfg);
  const sparse::Coo graph = make_fb(300, 4, 42);

  const auto first = svc.submit(make_job(graph, 4));
  ASSERT_EQ(first.status, JobStatus::kQueued);
  const JobResult cold = svc.wait(first.id);
  ASSERT_EQ(cold.status, JobStatus::kCompleted);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.spectral.labels.size(), 300u);

  const auto second = svc.submit(make_job(graph, 4));
  const JobResult hit = svc.wait(second.id);
  ASSERT_EQ(hit.status, JobStatus::kCompleted);
  EXPECT_TRUE(hit.cache_hit);
  // Identical labels on hit vs recompute.
  EXPECT_EQ(hit.spectral.labels, cold.spectral.labels);
  EXPECT_EQ(hit.graph_fingerprint, cold.graph_fingerprint);
  EXPECT_EQ(hit.config_fingerprint, cold.config_fingerprint);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_GE(stats.cache_entries, 1u);
}

TEST(Service, RejectsJobOverPerJobQuota) {
  ServiceConfig scfg;
  scfg.job_arena_quota_bytes = 1024;  // far below any real graph
  Service svc(scfg);
  const auto sub = svc.submit(make_job(make_fb(300, 4, 1), 4));
  EXPECT_EQ(sub.status, JobStatus::kOverloaded);
  const JobResult r = svc.wait(sub.id);
  EXPECT_EQ(r.status, JobStatus::kOverloaded);
  EXPECT_NE(r.error.find("quota"), std::string::npos);
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(Service, RejectsJobOverArenaBudget) {
  ServiceConfig scfg;
  scfg.job_arena_quota_bytes = 0;  // unlimited per job
  scfg.arena_budget_bytes = 1024;  // aggregate budget below one job
  Service svc(scfg);
  const auto sub = svc.submit(make_job(make_fb(300, 4, 1), 4));
  EXPECT_EQ(sub.status, JobStatus::kOverloaded);
  const JobResult r = svc.wait(sub.id);
  EXPECT_NE(r.error.find("arena budget"), std::string::npos);
}

TEST(Service, RejectsAtQueueDepthLimit) {
  ServiceConfig scfg;
  scfg.max_queue_depth = 0;  // no waiting room at all
  Service svc(scfg);
  const auto sub = svc.submit(make_job(make_fb(300, 4, 1), 4));
  EXPECT_EQ(sub.status, JobStatus::kOverloaded);
  const JobResult r = svc.wait(sub.id);
  EXPECT_NE(r.error.find("queue depth"), std::string::npos);
}

// Regression for the process-wide governor: two concurrent jobs, one with
// a microscopic deadline and one without.  Pre-fix, arming the deadline
// governor was process-global, so job B's solve could be cancelled by job
// A's budget.  With per-job governors, A expires alone and B completes.
TEST(Service, InterleavedDeadlinesArePerJob) {
  ServiceConfig scfg;
  scfg.workers = 2;
  Service svc(scfg);

  Job doomed = make_job(make_fb(3000, 8, 3), 8, 3);
  doomed.deadline_ms = 1;  // expires long before the solve can finish
  // Hard deadline: disable anytime wrap-up so expiry surfaces as a
  // cancellation instead of a partial completed result.
  doomed.config.budget.anytime = false;
  const auto a = svc.submit(std::move(doomed));
  const auto b = svc.submit(make_job(make_fb(300, 4, 42), 4));

  const JobResult rb = svc.wait(b.id);
  EXPECT_EQ(rb.status, JobStatus::kCompleted);
  EXPECT_EQ(rb.spectral.labels.size(), 300u);

  const JobResult ra = svc.wait(a.id);
  EXPECT_EQ(ra.status, JobStatus::kCancelled);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

// A job cut short by its deadline completes with an anytime (partial)
// answer.  The config fingerprint ignores the deadline, so caching that
// answer would serve its labels to a later full solve of the same graph:
// anytime results are never cached.
TEST(Service, AnytimeResultIsNeverCached) {
  ServiceConfig scfg;
  scfg.workers = 1;
  Service svc(scfg);
  const sparse::Coo graph = make_fb(3000, 8, 3);

  Job cut = make_job(graph, 8, 3);
  cut.deadline_ms = 1;  // expires long before the solve can finish
  const JobResult partial = svc.wait(svc.submit(std::move(cut)).id);
  ASSERT_EQ(partial.status, JobStatus::kCompleted);
  EXPECT_TRUE(partial.spectral.budget.anytime);

  const JobResult full = svc.wait(svc.submit(make_job(graph, 8, 3)).id);
  ASSERT_EQ(full.status, JobStatus::kCompleted);
  EXPECT_FALSE(full.cache_hit);
  EXPECT_FALSE(full.spectral.budget.anytime);
  EXPECT_EQ(full.config_fingerprint, partial.config_fingerprint);
}

TEST(Service, CancelQueuedAndRunningJobs) {
  ServiceConfig scfg;
  scfg.workers = 1;
  Service svc(scfg);
  // A large job occupies the single executor...
  const auto running = svc.submit(make_job(make_fb(3000, 8, 5), 8, 5));
  // ...so this one is still queued and cancels instantly.
  const auto queued = svc.submit(make_job(make_fb(300, 4, 6), 4, 6));
  EXPECT_TRUE(svc.cancel(queued.id));
  const JobResult rq = svc.wait(queued.id);
  EXPECT_EQ(rq.status, JobStatus::kCancelled);
  EXPECT_NE(rq.error.find("queued"), std::string::npos);

  svc.cancel(running.id);
  const JobResult rr = svc.wait(running.id);
  // Either the cancel landed at a poll site or the solve won the race.
  EXPECT_TRUE(rr.status == JobStatus::kCancelled ||
              rr.status == JobStatus::kCompleted);
  EXPECT_FALSE(svc.cancel(queued.id));  // already terminal
  EXPECT_FALSE(svc.cancel(9999));       // unknown id
}

// The tentpole acceptance: a <=1% delta-edge update warm-starts from the
// cached checkpoint, spends at most half the cold solve's matvecs, and
// produces the same partition as solving the updated graph cold.
TEST(Service, WarmStartUsesFewerWavesAndMatchesColdLabels) {
  ServiceConfig scfg;
  scfg.workers = 1;
  Service svc(scfg);
  const sparse::Coo graph = make_fb(1200, 12, 42);

  const auto first = svc.submit(make_job(graph, 12));
  const JobResult cold = svc.wait(first.id);
  ASSERT_EQ(cold.status, JobStatus::kCompleted);
  ASSERT_FALSE(cold.warm_started);
  ASSERT_GT(cold.spectral.eig_stats.matvec_count, 0);

  sparse::Coo updated = graph;
  service::perturb_edges(updated, 0.01, /*seed=*/123);
  Job delta = make_job(updated, 12);
  delta.warm_hint = core::graph_fingerprint(graph);
  const auto second = svc.submit(std::move(delta));
  const JobResult warm = svc.wait(second.id);
  ASSERT_EQ(warm.status, JobStatus::kCompleted);
  EXPECT_FALSE(warm.cache_hit);
  ASSERT_TRUE(warm.warm_started);
  EXPECT_LE(2 * warm.spectral.eig_stats.matvec_count,
            cold.spectral.eig_stats.matvec_count)
      << "warm re-solve must cost at most half the cold waves";

  // Same partition as a cold solve of the updated graph.
  const core::SpectralResult recomputed =
      core::spectral_cluster_graph(updated, device_config(12), nullptr);
  EXPECT_GE(metrics::adjusted_rand_index(warm.spectral.labels,
                                         recomputed.labels),
            real{1.0});
}

// A cold job never borrows a donor by shape: an unrelated graph with the
// same n and config as a cached, checkpointed entry cold-starts and clusters
// exactly like a fresh solve.
TEST(Service, UnrelatedSameShapeGraphDoesNotWarmStart) {
  ServiceConfig scfg;
  scfg.workers = 1;
  Service svc(scfg);
  const sparse::Coo cached = make_fb(300, 4, 42);
  const sparse::Coo unrelated = make_fb(300, 4, 7);
  ASSERT_EQ(cached.rows, unrelated.rows);
  ASSERT_NE(core::graph_fingerprint(cached),
            core::graph_fingerprint(unrelated));

  const JobResult first = svc.wait(svc.submit(make_job(cached, 4)).id);
  ASSERT_EQ(first.status, JobStatus::kCompleted);
  const JobResult second = svc.wait(svc.submit(make_job(unrelated, 4)).id);
  ASSERT_EQ(second.status, JobStatus::kCompleted);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_FALSE(second.warm_started);

  const core::SpectralResult fresh =
      core::spectral_cluster_graph(unrelated, device_config(4), nullptr);
  EXPECT_EQ(second.spectral.labels, fresh.labels);
}

TEST(Service, ShutdownDrainCompletesQueuedJobs) {
  ServiceConfig scfg;
  scfg.workers = 1;
  Service svc(scfg);
  std::vector<JobId> ids;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    ids.push_back(svc.submit(make_job(make_fb(200, 3, seed), 3, seed)).id);
  }
  svc.shutdown(/*drain=*/true);
  for (const JobId id : ids) {
    EXPECT_EQ(svc.wait(id).status, JobStatus::kCompleted);
  }
  // Submissions after shutdown are rejected, not queued forever.
  const auto late = svc.submit(make_job(make_fb(200, 3, 9), 3, 9));
  EXPECT_EQ(late.status, JobStatus::kOverloaded);
}

// num_devices > 1 jobs on a shared context: both executors run over the
// context and its peers at once, on the context's one pool, and every job
// still gets the bits of a solo run.
TEST(Service, ConcurrentMultiDeviceJobsMatchSoloRuns) {
  ServiceConfig scfg;
  scfg.workers = 2;
  scfg.enable_cache = false;
  scfg.enable_warm_start = false;
  device::DeviceContext ctx(2);
  Service svc(scfg, &ctx);
  std::vector<Job> jobs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Job job = make_job(make_fb(300, 4, seed), 4, seed);
    job.config.num_devices = 2;
    jobs.push_back(std::move(job));
  }
  std::vector<JobId> ids;
  for (const Job& job : jobs) ids.push_back(svc.submit(job).id);
  for (usize i = 0; i < jobs.size(); ++i) {
    const JobResult r = svc.wait(ids[i]);
    ASSERT_EQ(r.status, JobStatus::kCompleted) << r.error;
    EXPECT_FALSE(r.spectral.degradation.degraded);
    EXPECT_GT(r.spectral.device_counters.bytes_d2d, 0u);
    device::DeviceContext solo_ctx(1);
    const core::SpectralResult solo =
        core::spectral_cluster_graph(jobs[i].graph, jobs[i].config, &solo_ctx);
    ASSERT_EQ(r.spectral.labels.size(), solo.labels.size());
    EXPECT_EQ(std::memcmp(r.spectral.labels.data(), solo.labels.data(),
                          solo.labels.size() * sizeof(index_t)),
              0)
        << "job " << i;
  }
  EXPECT_EQ(ctx.devices().size(), 2u);
}

TEST(Service, WaitUnknownIdThrows) {
  Service svc(ServiceConfig{});
  EXPECT_THROW((void)svc.wait(42), std::invalid_argument);
}

}  // namespace
}  // namespace fastsc
