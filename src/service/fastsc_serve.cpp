// fastsc_serve: replay a job trace through a fastsc::Service instance.
//
// Reads a trace file (see src/service/trace_replay.h for the grammar and
// examples/service_trace.txt for a sample), submits every op against a
// live service, waits for the results, and prints a per-job and aggregate
// summary.  After draining, the last chained warm-start job is re-solved
// cold on the same graph so the warm/cold wave counts and label agreement
// are measured directly; they are published as service.* gauges:
//
//   service.latency_p50_ms / service.latency_p99_ms
//   service.warm_matvecs / service.cold_matvecs
//   service.warm_vs_cold_ari
//
// With --trace-out/--metrics-out the run writes the usual observability
// artifacts, which tools/check_trace.py can validate (--expect-counter on
// service.*/cache.* counters, --expect-gauge on the gauges above).
//
// --chaos turns the replay into a silent-data-corruption soak (DESIGN.md
// §14): the trace is first replayed fault-free as a label oracle, then
// replayed again under a seeded bitflip fault plan covering every
// corruption site (CSR values, staged basis columns, device transfer
// buffers, cache entries).  Every job that completes under chaos must
// produce labels identical (ARI == 1.0) to the oracle's — the detectors
// and recovery ladder have to absorb every flip — and the run publishes
// sdc.chaos_label_mismatches plus the checksum-overhead gauge
// sdc.overhead_ratio (total flops / non-sdc flops of the clean pass).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/fingerprint.h"
#include "core/report.h"
#include "core/spectral.h"
#include "device/device.h"
#include "fastsc/service.h"
#include "fault/fault.h"
#include "metrics/external.h"
#include "obs/metrics.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "service/trace_replay.h"

namespace {

using namespace fastsc;

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<usize>(p * static_cast<double>(xs.size()));
  return xs[std::min(rank, xs.size() - 1)];
}

/// Seed-derived bitflip plan for the chaos soak.  The seed picks which
/// occurrence of each site gets hit (and, inside fault::corrupt_*, which
/// element and bit flips), so a given seed reproduces the same storm.
/// bitflip.csr.values is pinned to nth=1 so every seed corrupts at least
/// one solve — the smoke gate asserts sdc.detected >= 1 — and
/// bitflip.cache.entry is pinned to the first seal verification (an
/// exact-key lookup): the evicted entry is re-created by the resulting
/// cold solve, so downstream warm-start lineage — and with it exact label
/// agreement with the oracle — is preserved.  A flip that instead ate a
/// warm donor would legitimately change later labels within convergence
/// tolerance, which is recovery, not silent corruption, but would fail the
/// soak's exact-match bar.
fault::FaultPlan chaos_plan(std::uint64_t seed) {
  std::uint64_t s = seed + 0x9e3779b97f4a7c15ull;
  const auto next = [&s](std::uint64_t range) {
    s ^= s >> 33;
    s *= 0xff51afd7ed558ccdull;
    s ^= s >> 29;
    return 1 + s % range;
  };
  return fault::FaultPlan::parse(
      "site=bitflip.csr.values,nth=1,count=1"
      ";site=bitflip.basis.column,nth=" + std::to_string(next(6)) +
      ",count=2"
      ";site=bitflip.device.buffer,nth=" + std::to_string(next(4)) +
      ",count=1"
      ";site=bitflip.cache.entry,nth=1,count=1"
      ";seed=" + std::to_string(seed));
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fastsc_serve: replay a job trace through fastsc::Service");
  const bool run = cli.parse(argc, argv);
  const std::string trace_path = cli.get_string(
      "trace", "examples/service_trace.txt", "job trace file to replay");
  ServiceConfig scfg;
  scfg.workers = static_cast<usize>(
      cli.get_int("workers", 2, "service executor threads"));
  scfg.max_queue_depth = static_cast<usize>(
      cli.get_int("queue-depth", 64, "queued-job admission limit"));
  scfg.arena_budget_bytes =
      static_cast<std::uint64_t>(cli.get_double(
          "arena-mb", 512, "aggregate device-byte budget (MiB, 0 = off)") *
          1024.0 * 1024.0);
  scfg.job_arena_quota_bytes =
      static_cast<std::uint64_t>(cli.get_double(
          "job-quota-mb", 256, "per-job device-byte quota (MiB, 0 = off)") *
          1024.0 * 1024.0);
  scfg.cache_capacity_bytes =
      static_cast<std::uint64_t>(cli.get_double(
          "cache-mb", 128, "result-cache capacity (MiB, 0 = off)") *
          1024.0 * 1024.0);
  scfg.default_deadline_ms = cli.get_double(
      "deadline-ms", 0, "default per-job deadline (ms, 0 = none)");
  const auto ncv = static_cast<index_t>(cli.get_int(
      "ncv", 0, "Lanczos basis size for every job (0 = solver default)"));
  const real eig_tol = static_cast<real>(cli.get_double(
      "eig-tol", 1e-8, "eigenpair residual tolerance for every job"));
  const auto device_workers = static_cast<usize>(cli.get_int(
      "device-workers", 0, "simulated-device worker threads (0 = all cores)"));
  const std::string trace_out = cli.get_string(
      "trace-out", "", "write a Chrome trace-event JSON timeline here");
  const std::string metrics_out = cli.get_string(
      "metrics-out", "", "write a metrics-registry JSON snapshot here");
  const std::string report_out = cli.get_string(
      "report-out", "",
      "write a run-report JSON (with the attribution section) here");
  const std::string prom_out = cli.get_string(
      "prom-out", "",
      "write a Prometheus text-format dump of every metric (SLO latency "
      "histograms included) here");
  scfg.job_artifacts_dir = cli.get_string(
      "job-artifacts-dir", "",
      "write per-job artifacts (job_<id>.trace.json + "
      "job_<id>.attribution.json) into this directory");
  const bool chaos = cli.get_bool(
      "chaos", false,
      "SDC soak: replay the trace clean as a label oracle, then again under "
      "a seeded bitflip plan; rc=1 unless every completed job matches");
  const auto chaos_seed = static_cast<std::uint64_t>(cli.get_int(
      "chaos-seed", 1, "seed for the chaos bitflip plan"));
  if (!run) {
    cli.print_help();
    return 0;
  }
  cli.check_unknown();
  // Tracing must be on before the DeviceContext records its first event
  // (same rule as the benches — the virtual timeline must be complete).
  if (!trace_out.empty()) obs::trace().set_enabled(true);
  if (!scfg.job_artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(scfg.job_artifacts_dir, ec);
    if (ec) {
      std::fprintf(stderr, "[serve] cannot create %s: %s\n",
                   scfg.job_artifacts_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  const std::vector<service::TraceOp> ops =
      service::parse_trace_file(trace_path);
  std::fprintf(stderr, "[serve] replaying %zu ops from %s\n", ops.size(),
               trace_path.c_str());

  core::SpectralConfig base;
  base.backend = core::Backend::kDevice;
  base.ncv = ncv;
  base.eig_tol = eig_tol;

  // Chaos soak, pass 1: fault-free oracle on its own service + device so
  // the chaos pass below starts from an identical cold state (empty cache,
  // fresh fingerprints).  One worker keeps job interleaving — and thus the
  // global fault-site occurrence order — deterministic for a given seed.
  std::vector<service::ReplayedJob> oracle_jobs;
  double sdc_overhead_ratio = 1.0;
  if (chaos) {
    scfg.workers = 1;
    std::fprintf(stderr,
                 "[serve] chaos soak: fault-free oracle pass (seed %llu)\n",
                 static_cast<unsigned long long>(chaos_seed));
    device::DeviceContext oracle_ctx(device_workers);
    {
      Service oracle_svc(scfg, &oracle_ctx);
      service::TraceReplayer oracle(oracle_svc, base);
      for (const service::TraceOp& op : ops) (void)oracle.submit(op);
      oracle.wait_all();
      oracle_svc.shutdown(/*drain=*/true);
      oracle_jobs = oracle.jobs();
    }
    // Checksum overhead straight from the clean pass's flop attribution:
    // everything the sdc.* sites burned is pure defense cost.
    double total_flops = 0, sdc_flops = 0;
    for (const obs::SiteReport& s :
         core::collect_attribution(oracle_ctx).sites) {
      total_flops += s.stats.flops;
      if (s.site.rfind("sdc.", 0) == 0) sdc_flops += s.stats.flops;
    }
    if (total_flops > sdc_flops && sdc_flops >= 0) {
      sdc_overhead_ratio = total_flops / (total_flops - sdc_flops);
    }
    // Drop the oracle pass's timeline events: its device tracks reuse the
    // same ids as the chaos pass's fresh DeviceContext, and two passes on
    // one track read as overlapping spans to check_trace.py.  The exported
    // trace should show only the storm.
    obs::trace().clear();
  }

  device::DeviceContext ctx(device_workers);
  Service svc(scfg, &ctx);
  service::TraceReplayer replayer(svc, base);
  // Chaos pass 2: the normal replay below runs with the bitflip plan armed
  // process-wide.  Service jobs carry no per-job fault plan, so nothing
  // re-arms over this scope; it is reset before the warm-vs-cold re-solve.
  std::optional<fault::ArmScope> chaos_scope;
  if (chaos) {
    const fault::FaultPlan plan = chaos_plan(chaos_seed);
    std::fprintf(stderr, "[serve] chaos soak: replay under plan %s\n",
                 plan.to_string().c_str());
    chaos_scope.emplace(plan);
  }
  for (const service::TraceOp& op : ops) {
    const Service::Submitted sub = replayer.submit(op);
    if (sub.status == JobStatus::kOverloaded) {
      std::fprintf(stderr, "[serve] job %llu %s:%s rejected (overloaded)\n",
                   static_cast<unsigned long long>(sub.id),
                   op.dataset.c_str(), op.op.c_str());
    }
  }
  replayer.wait_all();
  svc.shutdown(/*drain=*/true);
  chaos_scope.reset();

  // Chaos verdict: every job that completed under the bitflip storm must
  // label its graph exactly as the oracle did (ARI == 1.0 — identical
  // partitions up to cluster renumbering).  Anything less means a flip
  // slipped past the detectors and escaped as silent corruption.
  std::uint64_t chaos_mismatches = 0;
  if (chaos) {
    std::uint64_t compared = 0;
    const std::vector<service::ReplayedJob>& cjobs = replayer.jobs();
    for (usize i = 0; i < cjobs.size(); ++i) {
      const JobResult& r = cjobs[i].result;
      if (r.status != JobStatus::kCompleted) continue;
      double ari = -1;
      if (i < oracle_jobs.size() &&
          oracle_jobs[i].result.status == JobStatus::kCompleted &&
          oracle_jobs[i].result.spectral.labels.size() ==
              r.spectral.labels.size()) {
        ari = metrics::adjusted_rand_index(r.spectral.labels,
                                           oracle_jobs[i].result.spectral.labels);
      }
      ++compared;
      if (ari < 1.0) {
        ++chaos_mismatches;
        std::fprintf(stderr,
                     "[serve] chaos: job %llu %s:%s diverges from oracle "
                     "(ARI %.6f)\n",
                     static_cast<unsigned long long>(cjobs[i].id),
                     cjobs[i].op.dataset.c_str(), cjobs[i].op.op.c_str(), ari);
      }
    }
    obs::metrics().set_gauge("sdc.chaos_label_mismatches",
                             static_cast<double>(chaos_mismatches));
    obs::metrics().set_gauge("sdc.overhead_ratio", sdc_overhead_ratio);
    std::printf(
        "\nchaos soak: %llu completed jobs vs oracle, %llu mismatches, "
        "checksum overhead %.4fx\n",
        static_cast<unsigned long long>(compared),
        static_cast<unsigned long long>(chaos_mismatches),
        sdc_overhead_ratio);
  }

  std::vector<double> latencies;
  std::printf("%-5s %-14s %-10s %-5s %-5s %10s %10s %9s  %s\n", "job", "tag",
              "status", "hit", "warm", "queue_ms", "solve_ms", "matvecs",
              "reason");
  for (const service::ReplayedJob& j : replayer.jobs()) {
    const JobResult& r = j.result;
    // Rejection/failure detail rides the summary line so a replay log is
    // self-explaining (which admission gate fired, why a solve died).
    std::printf("%-5llu %-14s %-10s %-5d %-5d %10.2f %10.2f %9lld  %s\n",
                static_cast<unsigned long long>(j.id),
                (j.op.dataset + ":" + j.op.op).c_str(),
                job_status_name(r.status), r.cache_hit ? 1 : 0,
                r.warm_started ? 1 : 0, r.queue_ms, r.solve_ms,
                static_cast<long long>(r.spectral.eig_stats.matvec_count),
                r.error.empty() ? "-" : r.error.c_str());
    if (r.status == JobStatus::kCompleted && !r.cache_hit) {
      latencies.push_back(r.solve_ms);
    }
  }

  obs::MetricsRegistry& reg = obs::metrics();
  reg.set_gauge("service.latency_p50_ms", percentile(latencies, 0.50));
  reg.set_gauge("service.latency_p99_ms", percentile(latencies, 0.99));

  // SLO percentiles straight from the service's histograms: one set of
  // gauges per job class that saw traffic, plus the queue-wait vs solve
  // split.  These (and the histograms themselves) land in --prom-out.
  const std::vector<double> slo_edges = slo_ms_edges();
  auto publish_quantiles = [&reg, &slo_edges](const std::string& name) {
    const obs::Histogram& h = reg.histogram(name, slo_edges);
    if (h.total_count() == 0) return;
    reg.set_gauge(name + ".p50", obs::histogram_quantile(h, 0.50));
    reg.set_gauge(name + ".p95", obs::histogram_quantile(h, 0.95));
    reg.set_gauge(name + ".p99", obs::histogram_quantile(h, 0.99));
  };
  for (const char* cls : {"low", "normal", "high"}) {
    publish_quantiles(std::string("slo.latency_ms.") + cls);
  }
  publish_quantiles("slo.queue_ms");
  publish_quantiles("slo.solve_ms");

  // Warm-vs-cold comparison: re-solve the newest warm-started job's graph
  // cold and compare wave counts + labels.
  const std::vector<service::ReplayedJob>& jobs = replayer.jobs();
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    const JobResult& r = it->result;
    if (r.status != JobStatus::kCompleted || !r.warm_started) continue;
    const sparse::Coo* g = replayer.current_graph(it->op.dataset);
    if (g == nullptr || core::graph_fingerprint(*g) != r.graph_fingerprint) {
      continue;  // dataset mutated again after this job; graph is gone
    }
    core::SpectralConfig cold_cfg = replayer.config_for(it->op);
    const core::SpectralResult cold =
        core::spectral_cluster_graph(*g, cold_cfg, &ctx);
    const double ari = metrics::adjusted_rand_index(r.spectral.labels,
                                                    cold.labels);
    reg.set_gauge("service.warm_matvecs",
                  static_cast<double>(r.spectral.eig_stats.matvec_count));
    reg.set_gauge("service.cold_matvecs",
                  static_cast<double>(cold.eig_stats.matvec_count));
    reg.set_gauge("service.warm_vs_cold_ari", ari);
    std::printf(
        "\nwarm-start check (job %llu, %s): warm %lld matvecs vs cold %lld "
        "(%.1f%%), label ARI %.4f\n",
        static_cast<unsigned long long>(it->id), it->op.dataset.c_str(),
        static_cast<long long>(r.spectral.eig_stats.matvec_count),
        static_cast<long long>(cold.eig_stats.matvec_count),
        100.0 * static_cast<double>(r.spectral.eig_stats.matvec_count) /
            static_cast<double>(std::max<index_t>(
                1, cold.eig_stats.matvec_count)),
        ari);
    break;
  }

  const ServiceStats stats = svc.stats();
  std::printf(
      "\nservice: submitted=%llu admitted=%llu rejected=%llu "
      "completed=%llu failed=%llu cancelled=%llu\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.cancelled));
  std::printf(
      "cache: hits=%llu misses=%llu evictions=%llu entries=%llu "
      "bytes=%llu\n",
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_evictions),
      static_cast<unsigned long long>(stats.cache_entries),
      static_cast<unsigned long long>(stats.cache_bytes));

  std::printf("\n");
  core::attribution_table(core::collect_attribution(ctx)).print();

  obs::publish_device_context(ctx, reg);
  if (!trace_out.empty() && obs::trace().write_json_file(trace_out)) {
    std::fprintf(stderr, "[serve] wrote trace to %s (%zu events)\n",
                 trace_out.c_str(), obs::trace().event_count());
  }
  if (!metrics_out.empty() && reg.write_json_file(metrics_out)) {
    std::fprintf(stderr, "[serve] wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!report_out.empty()) {
    core::RunReport report;
    report.bench = "fastsc_serve";
    report.attribution = core::collect_attribution(ctx);
    if (core::write_run_report_json_file(report, report_out)) {
      std::fprintf(stderr, "[serve] wrote run report to %s\n",
                   report_out.c_str());
    }
  }
  if (!prom_out.empty() && reg.write_prometheus_file(prom_out)) {
    std::fprintf(stderr, "[serve] wrote prometheus dump to %s\n",
                 prom_out.c_str());
  }
  if (chaos_mismatches != 0) {
    std::fprintf(stderr, "[serve] chaos soak FAILED: %llu label mismatches\n",
                 static_cast<unsigned long long>(chaos_mismatches));
    return 1;
  }
  return 0;
}
