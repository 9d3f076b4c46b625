// The one-shot workloads, dti and powerlaw: back-to-back calls of the
// public spectral_cluster_* entry points on one DeviceContext, as a single
// closed-loop client would make them.  A run cycles through a few inputs
// of the same shape (workloads.h) and reports quality averaged over them.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "metrics/external.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = fastsc;
using Clock = std::chrono::steady_clock;

/// Realizations per run; op i solves realization i % kInputs.
constexpr int kDtiInputs = 8;
constexpr int kPowerlawInputs = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One input of a one-shot workload.
struct Input {
  const fs::sparse::Coo* w = nullptr;           // the graph, host side
  /// Planted labels; when null, `ari` compares each solve with the
  /// input's first one.
  const std::vector<index_t>* truth = nullptr;
  std::function<fs::core::SpectralResult(fs::device::DeviceContext&)> solve;
  std::function<ReplayResult(fs::device::DeviceContext&, SpanRecorder&,
                             std::uint64_t)>
      replay;
};

struct OneShot {
  index_t n = 0;
  index_t k = 0;
  fs::core::SpectralConfig cfg;
  double ari_floor = 0;
  const char* ari_note = "";
  std::vector<Input> inputs;
};

/// What the checks remember per input: its operator for the residual, the
/// first solve's labels for the determinism check, and its quality.
struct InputState {
  SymOperator op;
  std::vector<index_t> reference;
  std::uint64_t ref_hash = 0;
  double ncut = -1;
  std::vector<double> aris;
};

int run_oneshot(const Args& args, const OneShot& w) {
  const unsigned workers = nproc();
  std::printf("config workload=%s seed=%" PRIu64
              " nproc=%u device_workers=%u service_executors=0 clients=1 "
              "inputs=%zu n=%lld k=%lld nnz=%lld\n",
              args.workload.c_str(), args.seed, workers, workers,
              w.inputs.size(), static_cast<long long>(w.n),
              static_cast<long long>(w.k),
              static_cast<long long>(w.inputs.front().w->nnz()));
  Checker checker;
  const double res_limit = residual_limit(w.cfg);
  std::vector<InputState> state(w.inputs.size());
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    state[i].op = sym_operator(*w.inputs[i].w);
  }

  const auto check = [&](const char* kind, std::uint64_t id, std::size_t in,
                         const fs::core::SpectralResult& r, double wall_s) {
    InputState& st = state[in];
    std::vector<std::string> problems;
    check_solve(r, w.n, w.k, &st.op, res_limit, problems);
    const std::uint64_t h = label_hash(r.labels);
    std::printf("op %" PRIu64 " %s input=%zu labels=%016" PRIx64 " ms=%.3f\n",
                id, kind, in, h, wall_s * 1e3);
    if (st.reference.empty()) {
      if (!problems.empty()) {
        checker.record(std::string(kind) + " " + std::to_string(id), problems);
        return;
      }
      st.reference = r.labels;
      st.ref_hash = h;
      st.ncut = ncut_of(*w.inputs[in].w, r.labels, w.k);
    } else if (h != st.ref_hash) {
      problems.push_back("labels differ from this input's first solve");
    }
    const std::vector<index_t>* truth = w.inputs[in].truth;
    const double ari = fs::metrics::adjusted_rand_index(
        r.labels, truth != nullptr ? *truth : st.reference);
    st.aris.push_back(ari);
    if (!(ari >= w.ari_floor)) {
      problems.push_back("ARI " + std::to_string(ari) + " below the floor " +
                         std::to_string(w.ari_floor));
    }
    checker.record(std::string(kind) + " " + std::to_string(id), problems);
  };

  // Set-up: context construction through the return of the first op.
  const auto t_setup = Clock::now();
  fs::device::DeviceContext ctx(workers);
  const fs::core::SpectralResult first = w.inputs.front().solve(ctx);
  const double setup_s = seconds_since(t_setup);
  check("warmup", 0, 0, first, setup_s);
  if (args.setup_only) {
    print_setup(checker, setup_s);
    return 0;
  }

  Ledger ledger;
  SpanRecorder rec;
  std::vector<double> op_s;
  const auto t0 = Clock::now();
  for (std::uint64_t id = 1; op_s.empty() || seconds_since(t0) < args.seconds;
       ++id) {
    const std::size_t in = id % w.inputs.size();
    const Input& input = w.inputs[in];
    const auto t = Clock::now();
    const fs::core::SpectralResult r = input.solve(ctx);
    op_s.push_back(seconds_since(t));
    check("solve", id, in, r, op_s.back());
    if (!args.trace) continue;
    ledger.add_untraced(r);
    const auto tr = Clock::now();
    const ReplayResult rr = input.replay(ctx, rec, id);
    const double replay_s = seconds_since(tr);
    ledger.add_replay(rec, id, rr, replay_s);
    std::vector<std::string> problems;
    check_labels(rr.labels, w.n, w.k, problems);
    if (!rr.eig_converged) problems.push_back("replay did not converge");
    print_op("replay", id, label_hash(rr.labels), replay_s * 1e3);
    checker.record("replay " + std::to_string(id), problems);
  }

  // Per input: its ncut and its lowest ARI over the run's ops.  The
  // reported figures average those over the inputs.
  std::vector<double> ncuts, aris;
  for (const InputState& st : state) {
    if (st.ncut < 0) continue;
    ncuts.push_back(st.ncut);
    aris.push_back(*std::min_element(st.aris.begin(), st.aris.end()));
  }
  Report rep;
  const double solve_s = median(op_s);
  const Tail t = tail(op_s);
  char tail_note[64];
  std::snprintf(tail_note, sizeof(tail_note), "p%.1f of %zu ops", t.percentile,
                t.samples);
  const std::string over = "mean over " + std::to_string(ncuts.size()) + " inputs";
  rep.set("setup_s", setup_s, "this process's set-up only");
  rep.set("solve_s", solve_s, "median of " + std::to_string(op_s.size()));
  // One closed-loop client completes 1 / (its op time) ops per second; the
  // median op time keeps a stall of the shared machine out of the figure.
  rep.set("jobs_per_s", 1.0 / solve_s, "one closed-loop client, 1 / solve_s");
  rep.set("job_p50_ms", solve_s * 1e3);
  rep.set("job_tail_ms", t.value * 1e3, tail_note);
  rep.set("ari", mean(aris), over + " of the minimum over its ops, " + w.ari_note);
  rep.set("ncut", mean(ncuts), over);
  rep.set("peak_rss_mb", peak_rss_mb());
  if (args.trace) {
    ledger.report(rep, solve_s);
    ledger.print_stage_table();
    write_trace(args, rec);
  }
  rep.print(checker, args.trace);
  return 0;
}

}  // namespace

int run_dti(const Args& args) {
  const DtiInput in = make_dti_input(args.seed, args.scale, kDtiInputs);
  OneShot w;
  w.n = in.vol.n;
  w.k = in.k;
  w.cfg = solve_config(in.k);
  w.ari_floor = kDtiAriFloor;
  w.ari_note = "vs planted parcels";
  for (std::size_t i = 0; i < in.w.size(); ++i) {
    const fs::real* x = in.profiles[i].data();
    Input input;
    input.w = &in.w[i];
    input.truth = &in.vol.labels;
    input.solve = [&, x](fs::device::DeviceContext& ctx) {
      return fs::core::spectral_cluster_points(x, in.vol.n, in.vol.d,
                                               in.vol.edges, w.cfg, &ctx);
    };
    input.replay = [&, x](fs::device::DeviceContext& ctx, SpanRecorder& rec,
                          std::uint64_t op) {
      return replay_points(ctx, x, in.vol.n, in.vol.d, in.vol.edges, w.cfg,
                           rec, op);
    };
    w.inputs.push_back(std::move(input));
  }
  return run_oneshot(args, w);
}

int run_powerlaw(const Args& args) {
  const std::vector<GraphInput> in =
      make_powerlaw_inputs(args.seed, args.scale, kPowerlawInputs);
  OneShot w;
  w.n = in.front().w.rows;
  w.k = in.front().k;
  w.cfg = solve_config(w.k);
  w.ari_floor = kPowerlawAriFloor;
  w.ari_note = "vs the input's first solve (no planted truth)";
  for (const GraphInput& g : in) {
    Input input;
    input.w = &g.w;
    input.solve = [&](fs::device::DeviceContext& ctx) {
      return fs::core::spectral_cluster_graph(g.w, w.cfg, &ctx);
    };
    input.replay = [&](fs::device::DeviceContext& ctx, SpanRecorder& rec,
                       std::uint64_t op) {
      return replay_graph(ctx, g.w, w.cfg, rec, op);
    };
    w.inputs.push_back(std::move(input));
  }
  return run_oneshot(args, w);
}

}  // namespace perfbench
