#include "report.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "core/spectral.h"
#include "metrics/cut.h"
#include "sparse/convert.h"
#include "stats.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"solve_s", "s"},      {"jobs_per_s", "1/s"},
    {"job_p50_ms", "ms"}, {"job_tail_ms", "ms"}, {"ari", "ratio"},
    {"ncut", "ratio"},    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.similarity_s", "s"},
    {"graph.normalize_s", "s"},
    {"device.upload_s", "s"},
    {"device.stage_s", "s"},
    {"sparse.spmv_s", "s"},
    {"sparse.spmv_calls", "count"},
    {"sparse.spmv_gbps_computed", "GB/s"},
    {"lanczos.step_s", "s"},
    {"lanczos.ritz_s", "s"},
    {"lanczos.ortho_s", "s"},
    {"lanczos.restart_s", "s"},
    {"lanczos.matvecs", "count"},
    {"lanczos.restarts", "count"},
    {"kmeans.s", "s"},
    {"kmeans.iterations", "count"},
    {"stage.similarity_s", "s"},
    {"stage.eigensolver_s", "s"},
    {"stage.kmeans_s", "s"},
    {"device.h2d_bytes", "bytes"},
    {"device.d2h_bytes", "bytes"},
    {"device.transfers", "count"},
    {"core.overhead_s", "s"},
    {"core.degradations", "count"},
    {"sdc.checks", "count"},
    {"sdc.detected", "count"},
    {"service.queue_ms", "ms"},
    {"service.solve_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.warm_ratio", "ratio"},
    {"service.warm_matvecs", "count"},
    {"service.cold_matvecs", "count"},
    {"service.warm_residual", "norm"},
    {"service.rss_growth_mb_per_kjob", "MiB"},
    {"trace.overhead_s", "s"},
};

/// Replayed layer spans and the per-layer metric each one reports.
struct LayerDef {
  const char* span;
  const char* metric;
};
constexpr LayerDef kLayers[] = {
    {"graph.similarity", "graph.similarity_s"},
    {"graph.normalize", "graph.normalize_s"},
    {"device.upload", "device.upload_s"},
    {"device.stage", "device.stage_s"},
    {"sparse.spmv", "sparse.spmv_s"},
    {"lanczos.step", "lanczos.step_s"},
    {"lanczos.ritz", "lanczos.ritz_s"},
    {"kmeans", "kmeans.s"},
};

const char* const kStages[] = {fastsc::core::kStageSimilarity,
                               fastsc::core::kStageEigensolver,
                               fastsc::core::kStageKmeans};

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      a.trace = val == "1";
    } else if (key == "--phase") {
      if (val != "run" && val != "setup") {
        throw std::invalid_argument("--phase must be run or setup");
      }
      a.setup_only = val == "setup";
    } else if (key == "--scale") {
      a.scale = std::stod(val);
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload != "dti" && a.workload != "powerlaw" &&
      a.workload != "service") {
    throw std::invalid_argument(
        "--workload must be dti, powerlaw or service, got '" + a.workload +
        "'");
  }
  if (!(a.seconds > 0) || !(a.scale > 0)) {
    throw std::invalid_argument("--seconds and --scale must be positive");
  }
  return a;
}

void Report::set(const std::string& name, double value, std::string note) {
  values_[name] = value;
  if (!note.empty()) notes_[name] = std::move(note);
}

void Report::print(const Checker& checker, bool trace) const {
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    const auto it = values_.find(m.name);
    const bool have = it != values_.end();
    const double v = have ? it->second : 0.0;
    const auto note = notes_.find(m.name);
    std::string extra = have ? "" : "  (n/a on this workload)";
    if (note != notes_.end()) extra += "  (" + note->second + ")";
    std::printf("metric %-26s %.9g %s%s\n", m.name, v, m.unit, extra.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  json += "}}";
  const double rate = checker.attempted() > 0
                          ? static_cast<double>(checker.failed()) /
                                static_cast<double>(checker.attempted())
                          : 0.0;
  std::printf("error_rate %.6g (%" PRIu64 " failed of %" PRIu64
              " attempted ops)\n",
              rate, checker.failed(), checker.attempted());
  for (const std::string& r : checker.reasons()) {
    std::printf("failure %s\n", r.c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_setup(const Checker& checker, double setup_s) {
  std::printf("{\"setup_s\": %.17g, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 "}\n",
              setup_s, checker.attempted(), checker.failed());
  for (const std::string& r : checker.reasons()) {
    std::fprintf(stderr, "failure %s\n", r.c_str());
  }
  std::fflush(stdout);
}

void print_op(const char* kind, std::uint64_t op, std::uint64_t hash,
              double wall_ms) {
  std::printf("op %" PRIu64 " %s labels=%016" PRIx64 " ms=%.3f\n", op, kind,
              hash, wall_ms);
}

double ncut_of(const fastsc::sparse::Coo& w,
               const std::vector<index_t>& labels, index_t k) {
  return fastsc::metrics::normalized_cut(fastsc::sparse::coo_to_csr(w), labels,
                                         k);
}

void Ledger::add_untraced(const fastsc::core::SpectralResult& r) {
  for (const char* st : kStages) stage_s_[st].push_back(r.clock.seconds(st));
  ortho_s_.push_back(r.eig_stats.ortho_seconds);
  restart_s_.push_back(r.eig_stats.restart_seconds);
  matvecs_.push_back(static_cast<double>(r.eig_stats.matvec_count));
  restarts_.push_back(static_cast<double>(r.eig_stats.restart_count));
  kmeans_iters_.push_back(static_cast<double>(r.kmeans_iterations));
  h2d_.push_back(static_cast<double>(r.device_counters.bytes_h2d));
  d2h_.push_back(static_cast<double>(r.device_counters.bytes_d2h));
  transfers_.push_back(static_cast<double>(r.device_counters.transfers_h2d +
                                           r.device_counters.transfers_d2h));
  sdc_checks_.push_back(static_cast<double>(r.integrity.checks));
  degradations_ += static_cast<double>(r.degradation.events.size());
  sdc_detected_ += static_cast<double>(r.integrity.detected);
}

void Ledger::add_replay(const SpanRecorder& rec, std::uint64_t op,
                        const ReplayResult& rr, double wall_s) {
  std::map<std::string, double> self = rec.self_seconds(op);
  for (const LayerDef& l : kLayers) {
    if (self.count(l.span) > 0) layer_s_[l.span].push_back(self[l.span]);
  }
  replay_wall_s_.push_back(wall_s);
  spmv_calls_.push_back(static_cast<double>(rr.matvecs));
  spmv_bytes_ = rr.spmv_bytes;
}

double Ledger::layer(const char* span) const {
  const auto it = layer_s_.find(span);
  return it == layer_s_.end() ? 0.0 : median(it->second);
}

double Ledger::stage(const std::string& name) const {
  const auto it = stage_s_.find(name);
  return it == stage_s_.end() ? 0.0 : median(it->second);
}

void Ledger::report(Report& rep, double solve_s) const {
  double layer_sum = 0;
  for (const LayerDef& l : kLayers) {
    if (layer_s_.count(l.span) == 0) continue;  // not on this workload's path
    layer_sum += layer(l.span);
    rep.set(l.metric, layer(l.span), "replay self time, median per op");
  }
  const double calls = median(spmv_calls_);
  const double spmv_s = layer("sparse.spmv");
  rep.set("sparse.spmv_calls", calls, "replay, per op");
  rep.set("sparse.spmv_gbps_computed",
          spmv_s > 0 ? calls * spmv_bytes_ / spmv_s * 1e-9 : 0.0,
          "computed from CSR array sizes, not measured traffic");
  rep.set("lanczos.ortho_s", median(ortho_s_), "SpectralResult::eig_stats");
  rep.set("lanczos.restart_s", median(restart_s_),
          "SpectralResult::eig_stats");
  rep.set("lanczos.matvecs", median(matvecs_), "SpectralResult::eig_stats");
  rep.set("lanczos.restarts", median(restarts_), "SpectralResult::eig_stats");
  rep.set("kmeans.iterations", median(kmeans_iters_), "SpectralResult");
  for (const char* st : kStages) {
    rep.set(std::string("stage.") + st + "_s", stage(st),
            "program StageClock, median per op");
  }
  rep.set("device.h2d_bytes", median(h2d_), "modeled link, per op");
  rep.set("device.d2h_bytes", median(d2h_), "modeled link, per op");
  rep.set("device.transfers", median(transfers_), "modeled link, per op");
  rep.set("core.overhead_s", solve_s - layer_sum,
          "untraced solve_s minus the replayed layer seconds");
  rep.set("core.degradations", degradations_, "run total");
  rep.set("sdc.checks", median(sdc_checks_), "per op");
  rep.set("sdc.detected", sdc_detected_, "run total");
  rep.set("trace.overhead_s", median(replay_wall_s_) - solve_s,
          "traced replay wall minus untraced solve_s");
}

void Ledger::print_stage_table() const {
  struct Row {
    const char* stage;
    std::vector<const char*> layers;
  };
  const Row rows[] = {
      {fastsc::core::kStageSimilarity, {"graph.similarity"}},
      {fastsc::core::kStageEigensolver,
       {"device.upload", "graph.normalize", "lanczos.step", "device.stage",
        "sparse.spmv", "lanczos.ritz"}},
      {fastsc::core::kStageKmeans, {"kmeans"}},
  };
  std::printf("stage ledger, median s per op: StageClock | replayed layers "
              "| gap | layers\n");
  for (const Row& r : rows) {
    double sum = 0;
    std::string parts;
    for (const char* l : r.layers) {
      sum += layer(l);
      char buf[80];
      std::snprintf(buf, sizeof(buf), " %s=%.4f", l, layer(l));
      parts += buf;
    }
    std::printf("stage %-12s %.4f | %.4f | %+.4f |%s\n", r.stage,
                stage(r.stage), sum, stage(r.stage) - sum, parts.c_str());
  }
}

void write_trace(const Args& args, const SpanRecorder& rec) {
  if (args.trace_out.empty()) return;
  if (rec.write_chrome_json(args.trace_out)) {
    std::printf("trace written to %s (%zu spans)\n", args.trace_out.c_str(),
                rec.spans().size());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }
}

}  // namespace perfbench
