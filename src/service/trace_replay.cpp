#include "service/trace_replay.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/fingerprint.h"
#include "data/social.h"
#include "graph/components.h"

namespace fastsc::service {

namespace {

JobPriority priority_from_int(int p) {
  if (p <= 0) return JobPriority::kLow;
  if (p >= 2) return JobPriority::kHigh;
  return JobPriority::kNormal;
}

TraceOp parse_line(const std::string& line, usize line_no) {
  std::istringstream in(line);
  TraceOp op;
  long long n = 0;
  long long k = 0;
  unsigned long long seed = 0;
  if (!(in >> op.op >> op.dataset >> n >> k >> seed >> op.priority >>
        op.deadline_ms >> op.delta_frac)) {
    throw std::invalid_argument(
        "trace line " + std::to_string(line_no) +
        ": expected 'op dataset n k seed priority deadline_ms delta_frac', "
        "got: " + line);
  }
  if (op.op != "solve" && op.op != "update") {
    throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                ": unknown op '" + op.op + "'");
  }
  op.n = static_cast<index_t>(n);
  op.k = static_cast<index_t>(k);
  op.seed = seed;
  return op;
}

}  // namespace

std::vector<TraceOp> parse_trace_text(const std::string& text) {
  std::vector<TraceOp> ops;
  std::istringstream in(text);
  std::string line;
  usize line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const usize hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ops.push_back(parse_line(line, line_no));
  }
  return ops;
}

std::vector<TraceOp> parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open trace file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trace_text(text.str());
}

void perturb_edges(sparse::Coo& w, double frac, std::uint64_t seed) {
  if (frac <= 0) return;
  const usize nnz = w.values.size();
  for (usize e = 0; e < nnz; ++e) {
    const index_t i = w.row_idx[e];
    const index_t j = w.col_idx[e];
    if (i == j) continue;
    // Hash the undirected pair so both stored directions make the same
    // decision, independent of storage order.
    const std::uint64_t key[3] = {seed,
                                  static_cast<std::uint64_t>(std::min(i, j)),
                                  static_cast<std::uint64_t>(std::max(i, j))};
    const std::uint64_t h = core::fnv1a64(key, sizeof(key));
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    if (u < frac) w.values[e] *= static_cast<real>(1.5);
  }
}

TraceReplayer::TraceReplayer(Service& service, core::SpectralConfig base)
    : service_(service), base_(std::move(base)) {}

core::SpectralConfig TraceReplayer::config_for(const TraceOp& op) const {
  core::SpectralConfig cfg = base_;
  cfg.num_clusters = op.k;
  cfg.seed = op.seed;
  return cfg;
}

Service::Submitted TraceReplayer::submit(const TraceOp& op) {
  DatasetState& ds = datasets_[op.dataset];
  std::uint64_t warm_hint = 0;
  if (op.op == "update" && ds.graph.rows > 0) {
    // The hinted donor is the previous job's cache entry: let it land.
    (void)service_.wait(ds.last_job);
    warm_hint = ds.fingerprint;
    ++ds.updates;
    perturb_edges(ds.graph, op.delta_frac, op.seed + ds.updates);
  } else {
    // First touch (or an explicit re-solve): build the generator graph.
    const data::SocialParams params =
        op.dataset.rfind("dblp", 0) == 0
            ? data::dblp_like_params(op.n, op.k, op.seed)
            : data::fb_like_params(op.n, op.k, op.seed);
    // The skewed generator leaves isolated vertices at small n; the
    // normalized Laplacian requires positive degrees, so serve the largest
    // connected component (paper §IV.B's preprocessing step).
    std::vector<index_t> old_of_new;
    ds.graph =
        graph::largest_component(data::make_social_graph(params).w, old_of_new);
    ds.updates = 0;
  }
  ds.fingerprint = core::graph_fingerprint(ds.graph);

  Job job;
  job.graph = ds.graph;  // copy: the replayer keeps the evolving state
  job.config = config_for(op);
  job.priority = priority_from_int(op.priority);
  job.deadline_ms = op.deadline_ms;
  job.warm_hint = warm_hint;
  job.tag = op.dataset + ":" + op.op;

  const Service::Submitted sub = service_.submit(std::move(job));
  ds.last_job = sub.id;
  ReplayedJob replayed;
  replayed.op = op;
  replayed.id = sub.id;
  replayed.submit_status = sub.status;
  jobs_.push_back(std::move(replayed));
  return sub;
}

const std::vector<ReplayedJob>& TraceReplayer::wait_all() {
  for (ReplayedJob& j : jobs_) {
    j.result = service_.wait(j.id);
  }
  return jobs_;
}

const sparse::Coo* TraceReplayer::current_graph(
    const std::string& dataset) const {
  const auto it = datasets_.find(dataset);
  if (it == datasets_.end() || it->second.graph.rows == 0) return nullptr;
  return &it->second.graph;
}

}  // namespace fastsc::service
