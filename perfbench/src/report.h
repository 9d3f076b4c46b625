// Command line, metric catalogue and result printing shared by the
// workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "core/spectral.h"
#include "replay.h"
#include "spans.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  double scale = 1.0;
  std::string trace_out;
};

/// Throws std::invalid_argument on a bad command line.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Collects metric values and prints them: one "metric" line each, then the
/// result object as the last line of stdout.  A --trace 0 run prints every
/// end-to-end metric, a --trace 1 run every per-layer metric; a metric a
/// workload has no value for prints 0 and says so.
class Report {
 public:
  void set(const std::string& name, double value, std::string note = "");
  void print(const Checker& checker, bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
};

/// The last line of a --phase setup run.
void print_setup(const Checker& checker, double setup_s);

/// The per-op line: its label hash (the determinism check) and wall time.
void print_op(const char* kind, std::uint64_t op, std::uint64_t hash,
              double wall_ms);

/// Normalized cut (metrics/cut.h) of `labels` on the graph `w`.
[[nodiscard]] double ncut_of(const fastsc::sparse::Coo& w,
                             const std::vector<index_t>& labels, index_t k);

/// What the traced runs accumulate: per-op layer self times from the replay
/// and per-op program counters from the untraced ops.
class Ledger {
 public:
  void add_untraced(const fastsc::core::SpectralResult& r);
  void add_replay(const SpanRecorder& rec, std::uint64_t op,
                  const ReplayResult& rr, double wall_s);

  /// Fills the per-layer metrics; `solve_s` is the untraced median.
  void report(Report& rep, double solve_s) const;

  /// The program's StageClock seconds next to the replayed layers that make
  /// up each stage; the gap is pipeline work no layer call covers.
  void print_stage_table() const;

 private:
  [[nodiscard]] double layer(const char* span) const;
  [[nodiscard]] double stage(const std::string& name) const;

  std::map<std::string, std::vector<double>> layer_s_;  // per replay op
  std::vector<double> replay_wall_s_;
  std::vector<double> spmv_calls_;
  double spmv_bytes_ = 0;
  std::map<std::string, std::vector<double>> stage_s_;  // untraced StageClock
  std::vector<double> ortho_s_, restart_s_, matvecs_, restarts_,
      kmeans_iters_;
  std::vector<double> h2d_, d2h_, transfers_, sdc_checks_;
  double degradations_ = 0;
  double sdc_detected_ = 0;
};

/// Writes the replay's spans as Chrome trace-event JSON to --trace-out.
void write_trace(const Args& args, const SpanRecorder& rec);

int run_dti(const Args& args);
int run_powerlaw(const Args& args);
int run_service(const Args& args);

}  // namespace perfbench
