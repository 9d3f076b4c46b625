// The service workload: a closed loop of clients against one
// fastsc::Service on one DeviceContext.  Each client blocks on wait()
// before it submits again and repeats a fixed cycle over FB-like social
// graphs:
//
//   cold    a graph the service has not seen      (cache write)
//   hit     the same graph and config again        (cache read)
//   update  x3, each a ~1% edge reweighting of the previous graph, with
//           warm_hint naming it                    (warm-donor read + write)
//
// Hits are a fifth of the jobs and by far the fastest, so the median lands
// among the warm updates and the tail among the cold solves, away from the
// hit/solve boundary.  No job is sized to be rejected: every rejection is a
// failure.
//
// The service warm-starts a job from any cached entry with the same config
// and vertex count when its hint finds nothing, and a warm start from an
// unrelated graph returns wrong labels (NOTES.md).  So every pool graph
// has its own vertex count, and every cycle solves with its own config
// seed: a cold job then never finds a same-shaped donor.
//
// The service keeps every finished job, graph and result, for its whole
// life, so its memory grows with the jobs a run completes.  peak_rss_mb is
// therefore read once kRssJobs jobs have completed, a fixed amount of work,
// or a faster service would read as a memory regression; the growth after
// that point is the per-layer service.rss_growth_mb_per_kjob.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fastsc/service.h"
#include "metrics/external.h"
#include "report.h"
#include "service/trace_replay.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = fastsc;
using Clock = std::chrono::steady_clock;

constexpr int kUpdatesPerCycle = 3;
/// Graphs per client; cycle i solves graph i % kPoolPerClient.
constexpr int kPoolPerClient = 12;
/// Completed jobs at which peak_rss_mb is read.
constexpr std::uint64_t kRssJobs = 240;
/// jobs_per_s and job_tail_ms are medians over this many equal slices of
/// the loop, by completion time: a stall of the shared machine then moves
/// one slice, not the figure.
constexpr std::size_t kSlices = 6;

enum class Kind { kCold, kHit, kUpdate };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCold: return "cold";
    case Kind::kHit: return "hit";
    case Kind::kUpdate: return "update";
  }
  return "?";
}

struct JobRecord {
  Kind kind = Kind::kCold;
  int cycle = 0;
  int update = 0;  ///< 1..kUpdatesPerCycle for updates
  double latency_ms = 0;
  Clock::time_point done{};
  /// Recomputed by the client once wait() returns, outside the latency;
  /// the embedding is then dropped so the records' memory does not grow
  /// with throughput.  Negative for cache hits.
  double residual = -1;
  fs::JobResult result;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seed of the perturbation that makes update `u` of cycle `i` of client `c`.
std::uint64_t delta_seed(std::uint64_t seed, int c, int i, int u) {
  return mix(mix(mix(seed, 101 + static_cast<std::uint64_t>(c)),
                 static_cast<std::uint64_t>(i)),
             static_cast<std::uint64_t>(u));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

fs::Job make_job(fs::sparse::Coo graph, const fs::core::SpectralConfig& cfg) {
  fs::Job job;
  job.graph = std::move(graph);
  job.config = cfg;
  return job;
}

fs::JobResult run_job(fs::Service& svc, fs::Job job) {
  const fs::Service::Submitted s = svc.submit(std::move(job));
  return svc.wait(s.id);
}

/// The recomputed residual of a solved job; frees what the later checks do
/// not read (the cache holds its own checkpoint reference).
double settle(fs::JobResult& r, const fs::sparse::Coo& graph) {
  double res = -1;
  if (r.status == fs::JobStatus::kCompleted && !r.cache_hit) {
    res = max_residual(sym_operator(graph), r.spectral);
  }
  r.spectral.embedding = {};
  r.spectral.checkpoint.reset();
  return res;
}

/// A social graph whose vertex count no earlier graph of the run has.
GraphInput unique_social_graph(std::uint64_t seed, index_t n,
                               std::set<index_t>& used) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    GraphInput g = make_social_input(mix(seed, attempt), n);
    if (used.insert(g.w.rows).second) return g;
  }
}

/// Checks one job of graph `g`.  Solved jobs get the full solve check;
/// cache hits must return the filling job's labels.
void check_job(const JobRecord& rec, const GraphInput& g, double res_limit,
               const std::vector<index_t>* filler,
               std::vector<std::string>& problems, std::vector<double>& aris) {
  const fs::JobResult& r = rec.result;
  if (r.status != fs::JobStatus::kCompleted) {
    problems.push_back(std::string("status ") + fs::job_status_name(r.status) +
                       ": " + r.error);
    return;
  }
  if (rec.kind == Kind::kHit) {
    check_labels(r.spectral.labels, g.w.rows, g.k, problems);
  } else {
    check_solve(r.spectral, g.w.rows, g.k, nullptr, res_limit, problems);
    check_residual(rec.residual,
                   r.warm_started ? kWarmResidualLimit : res_limit, problems);
  }
  if (rec.kind == Kind::kCold && r.warm_started) {
    problems.push_back("cold job warm-started from an unrelated donor");
  }
  if (filler != nullptr && r.spectral.labels != *filler) {
    problems.push_back("cache-hit labels differ from the filling job's");
  }
  if (!problems.empty()) return;
  const double ari = fs::metrics::adjusted_rand_index(r.spectral.labels, g.truth);
  aris.push_back(ari);
  if (!(ari >= kServiceAriFloor)) {
    problems.push_back("ARI " + std::to_string(ari) + " below the floor " +
                       std::to_string(kServiceAriFloor));
  }
}

}  // namespace

int run_service(const Args& args) {
  const unsigned workers = nproc();
  const int executors = static_cast<int>(std::min(2u, workers));
  const int clients = static_cast<int>(std::min(4u, workers));

  // Inputs, all generated before the first timer starts.  Vertex counts
  // spread over [base, 1.4 base) in client-interleaved order, so every
  // client sees the same mix of sizes.
  const index_t base = std::max<index_t>(
      400, static_cast<index_t>(1000 * std::min(1.0, args.scale)));
  // The graphs are a fixed corpus: generator seeds differ in how hard
  // their communities are to recover, which would swamp a change to the
  // program.  The run's seed draws the edge deltas and the solver seeds.
  std::set<index_t> used;
  const GraphInput warm = unique_social_graph(7, base - 40, used);
  std::vector<std::vector<GraphInput>> pool(static_cast<std::size_t>(clients));
  for (int j = 0; j < kPoolPerClient; ++j) {
    for (int c = 0; c < clients; ++c) {
      const index_t slot = j * clients + c;
      pool[static_cast<std::size_t>(c)].push_back(unique_social_graph(
          mix(11 + static_cast<std::uint64_t>(c), static_cast<std::uint64_t>(j)),
          base + slot * (2 * base / 5) / (kPoolPerClient * clients), used));
    }
  }
  std::printf("config workload=service seed=%" PRIu64
              " nproc=%u device_workers=%u service_executors=%d clients=%d "
              "n=%lld..%lld k=%lld mix=cold,hit,%dxupdate\n",
              args.seed, workers, workers, executors, clients,
              static_cast<long long>(*used.begin()),
              static_cast<long long>(*used.rbegin()),
              static_cast<long long>(warm.k), kUpdatesPerCycle);

  const fs::core::SpectralConfig base_cfg = solve_config(warm.k);
  // Each cycle solves with its own solver seed: k-means outcomes then vary
  // independently from job to job instead of moving together, and no two
  // cycles share a config fingerprint (so no unrelated warm donors).
  const auto cycle_cfg = [&](int c, int cycle) {
    fs::core::SpectralConfig cfg = base_cfg;
    cfg.seed = mix(mix(args.seed, 1000 + static_cast<std::uint64_t>(c)),
                   static_cast<std::uint64_t>(cycle));
    return cfg;
  };
  const double res_limit = residual_limit(base_cfg);
  fs::ServiceConfig scfg;
  scfg.workers = static_cast<fs::usize>(executors);
  // Small enough that LRU eviction starts within the first seconds, so the
  // cache's share of peak_rss_mb does not grow with throughput.
  scfg.cache_capacity_bytes = 32ull << 20;
  Checker checker;
  std::vector<double> aris;

  // Set-up: context and service construction through the first job.
  const auto t_setup = Clock::now();
  fs::device::DeviceContext ctx(workers);
  fs::Service svc(scfg, &ctx);
  JobRecord first;
  first.result = run_job(svc, make_job(warm.w, base_cfg));
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - t_setup).count();
  {
    first.residual = settle(first.result, warm.w);
    std::vector<std::string> problems;
    check_job(first, warm, res_limit, nullptr, problems, aris);
    print_op("warmup", 0, label_hash(first.result.spectral.labels),
             setup_s * 1e3);
    checker.record("warmup", problems);
  }
  if (args.setup_only) {
    print_setup(checker, setup_s);
    return 0;
  }

  // A traced run splits its time between the loop and the layer replay.
  const double loop_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::vector<JobRecord>> records(
      static_cast<std::size_t>(clients));
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(loop_s));
  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<double> rss_at_mark{0};
  {
    const auto client = [&](int c) {
      std::vector<JobRecord>& out = records[static_cast<std::size_t>(c)];
      const std::vector<GraphInput>& mine = pool[static_cast<std::size_t>(c)];
      const auto submit = [&](Kind kind, int i, int u,
                              const fs::sparse::Coo& graph,
                              const fs::core::SpectralConfig& cfg,
                              std::uint64_t warm_hint) {
        JobRecord rec;
        rec.kind = kind;
        rec.cycle = i;
        rec.update = u;
        fs::Job job = make_job(graph, cfg);
        job.warm_hint = warm_hint;
        const auto t = Clock::now();
        rec.result = run_job(svc, std::move(job));
        rec.done = Clock::now();
        rec.latency_ms = ms_between(t, rec.done);
        if (jobs_done.fetch_add(1) + 1 == kRssJobs) {
          rss_at_mark.store(peak_rss_mb());
        }
        rec.residual = settle(rec.result, graph);
        out.push_back(std::move(rec));
      };
      for (int i = 0; Clock::now() < deadline; ++i) {
        const fs::core::SpectralConfig cfg = cycle_cfg(c, i);
        const fs::sparse::Coo& g =
            mine[static_cast<std::size_t>(i % kPoolPerClient)].w;
        submit(Kind::kCold, i, 0, g, cfg, 0);
        if (Clock::now() >= deadline) return;
        submit(Kind::kHit, i, 0, g, cfg, 0);
        fs::sparse::Coo cur = g;
        for (int u = 1; u <= kUpdatesPerCycle; ++u) {
          if (Clock::now() >= deadline) return;
          fs::service::perturb_edges(cur, kServiceDeltaFrac,
                                     delta_seed(args.seed, c, i, u));
          submit(Kind::kUpdate, i, u, cur, cfg,
                 out.back().result.graph_fingerprint);
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  const double rss_end = peak_rss_mb();
  const std::uint64_t jobs_total = jobs_done.load();
  const double rss_mark =
      jobs_total >= kRssJobs ? rss_at_mark.load() : rss_end;
  Clock::time_point last = t0;
  for (const auto& v : records) {
    for (const JobRecord& r : v) last = std::max(last, r.done);
  }
  const double window_s = std::chrono::duration<double>(last - t0).count();

  // Checks, after the loop: update graphs are rebuilt from their seeds.
  std::vector<double> latency_ms, solve_ms, queue_ms, ncuts;
  std::vector<double> warm_mv, cold_mv;
  std::vector<std::vector<double>> slice_ms(kSlices);
  double warm_residual = 0;
  std::uint64_t updates = 0, warm_started = 0;
  std::uint64_t op_id = 0;
  for (int c = 0; c < clients; ++c) {
    const std::vector<GraphInput>& mine = pool[static_cast<std::size_t>(c)];
    GraphInput g;
    std::vector<index_t> filler;
    for (const JobRecord& rec : records[static_cast<std::size_t>(c)]) {
      const fs::JobResult& r = rec.result;
      if (rec.kind == Kind::kCold) {
        g = mine[static_cast<std::size_t>(rec.cycle % kPoolPerClient)];
        filler = r.spectral.labels;
      } else if (rec.kind == Kind::kUpdate) {
        fs::service::perturb_edges(
            g.w, kServiceDeltaFrac,
            delta_seed(args.seed, c, rec.cycle, rec.update));
      }
      std::vector<std::string> problems;
      check_job(rec, g, res_limit, rec.kind == Kind::kHit ? &filler : nullptr,
                problems, aris);
      ++op_id;
      print_op(kind_name(rec.kind), op_id, label_hash(r.spectral.labels),
               rec.latency_ms);
      checker.record(std::string(kind_name(rec.kind)) + " " +
                         std::to_string(op_id),
                     problems);
      if (r.status != fs::JobStatus::kCompleted) continue;
      latency_ms.push_back(rec.latency_ms);
      const double at = std::chrono::duration<double>(rec.done - t0).count();
      slice_ms[std::min(kSlices - 1, static_cast<std::size_t>(
                                         at / window_s * kSlices))]
          .push_back(rec.latency_ms);
      queue_ms.push_back(r.queue_ms);
      if (rec.kind == Kind::kHit) continue;
      solve_ms.push_back(r.solve_ms);
      if (problems.empty()) ncuts.push_back(ncut_of(g.w, r.spectral.labels, g.k));
      const auto mv = static_cast<double>(r.spectral.eig_stats.matvec_count);
      if (rec.kind == Kind::kCold) {
        cold_mv.push_back(mv);
        continue;
      }
      ++updates;
      if (r.warm_started) {
        ++warm_started;
        warm_mv.push_back(mv);
        warm_residual = std::max(warm_residual, rec.residual);
      }
    }
  }

  Report rep;
  std::vector<double> slice_rate, slice_tail, slice_pct;
  for (const std::vector<double>& v : slice_ms) {
    slice_rate.push_back(static_cast<double>(v.size() * kSlices) / window_s);
    const Tail t = tail(v);
    slice_tail.push_back(t.value);
    slice_pct.push_back(t.percentile);
  }
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note),
                "median over %zu slices of each one's p%.1f (~%zu jobs each)",
                kSlices, mean(slice_pct), latency_ms.size() / kSlices);
  rep.set("setup_s", setup_s, "this process's set-up only");
  rep.set("solve_s", median(solve_ms) * 1e-3,
          "median JobResult::solve_ms of " + std::to_string(solve_ms.size()) +
              " solved jobs");
  rep.set("jobs_per_s", median(slice_rate),
          std::to_string(clients) + " closed-loop clients, median over " +
              std::to_string(kSlices) + " slices");
  rep.set("job_p50_ms", median(latency_ms), "submit to wait() return");
  rep.set("job_tail_ms", median(slice_tail), tail_note);
  // The mean, not the minimum: single-init k-means leaves a long low tail
  // over a thousand jobs, so the minimum would move with the job count.
  rep.set("ari", mean(aris), "mean over jobs, vs planted truth");
  rep.set("ncut", mean(ncuts), "mean over solved jobs");
  rep.set("peak_rss_mb", rss_mark,
          "peak through set-up and the first " + std::to_string(kRssJobs) +
              " jobs");

  if (args.trace) {
    const fs::ServiceStats st = svc.stats();
    const std::uint64_t lookups = st.cache_hits + st.cache_misses;
    rep.set("service.queue_ms", median(queue_ms), "p50 over jobs");
    rep.set("service.solve_ms", median(solve_ms), "p50 over solved jobs");
    rep.set("service.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(st.cache_hits) /
                              static_cast<double>(lookups)
                        : 0.0,
            std::to_string(st.cache_hits) + " hits of " +
                std::to_string(lookups) + " lookups");
    rep.set("service.warm_ratio",
            updates > 0 ? static_cast<double>(warm_started) /
                              static_cast<double>(updates)
                        : 0.0,
            std::to_string(warm_started) + " warm-started of " +
                std::to_string(updates) + " updates");
    rep.set("service.warm_matvecs", median(warm_mv), "median per warm job");
    rep.set("service.cold_matvecs", median(cold_mv), "median per cold job");
    rep.set("service.warm_residual", warm_residual,
            "max recomputed residual of warm-started jobs");
    rep.set("service.rss_growth_mb_per_kjob",
            jobs_total > kRssJobs
                ? (rss_end - rss_mark) * 1000.0 /
                      static_cast<double>(jobs_total - kRssJobs)
                : 0.0,
            "peak RSS growth after the first " + std::to_string(kRssJobs) +
                " jobs");

    // Layer replay of one pool graph on the service's context, alternating
    // with untraced direct solves of the same graph.
    const GraphInput& g = pool.front().front();
    Ledger ledger;
    SpanRecorder rec;
    std::vector<double> direct_s;
    const SymOperator op = sym_operator(g.w);
    std::uint64_t direct_hash = 0;
    const auto tr0 = Clock::now();
    for (std::uint64_t id = 1;
         direct_s.empty() ||
         std::chrono::duration<double>(Clock::now() - tr0).count() <
             args.seconds - loop_s;
         ++id) {
      const auto t1 = Clock::now();
      const fs::core::SpectralResult r =
          fs::core::spectral_cluster_graph(g.w, base_cfg, &ctx);
      direct_s.push_back(
          std::chrono::duration<double>(Clock::now() - t1).count());
      ledger.add_untraced(r);
      std::vector<std::string> problems;
      check_solve(r, g.w.rows, g.k, &op, res_limit, problems);
      const std::uint64_t h = label_hash(r.labels);
      if (id == 1) direct_hash = h;
      if (h != direct_hash) problems.push_back("labels differ from the first");
      print_op("direct", id, h, direct_s.back() * 1e3);
      checker.record("direct " + std::to_string(id), problems);
      const auto t2 = Clock::now();
      const ReplayResult rr = replay_graph(ctx, g.w, base_cfg, rec, id);
      const double replay_s =
          std::chrono::duration<double>(Clock::now() - t2).count();
      ledger.add_replay(rec, id, rr, replay_s);
      problems.clear();
      check_labels(rr.labels, g.w.rows, g.k, problems);
      if (!rr.eig_converged) problems.push_back("replay did not converge");
      print_op("replay", id, label_hash(rr.labels), replay_s * 1e3);
      checker.record("replay " + std::to_string(id), problems);
    }
    ledger.report(rep, median(direct_s));
    ledger.print_stage_table();
    write_trace(args, rec);
  }
  rep.print(checker, args.trace);
  return 0;
}

}  // namespace perfbench
