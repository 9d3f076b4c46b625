// Self-test of the benchmark's output checks: a clean solve passes, and
// each kind of corrupted output is counted as a failed op.
//
//   .bench_build/perfbench/perfbench_checks_test   (exit code 0 = pass)
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "data/sbm.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  namespace fs = fastsc;

  fs::data::SbmParams p;
  p.block_sizes = fs::data::equal_blocks(300, 3);
  p.p_in = 0.3;
  p.p_out = 0.01;
  const fs::data::SbmGraph g = fs::data::make_sbm(p);
  const index_t n = g.w.rows;
  const index_t k = 3;
  const fs::core::SpectralConfig cfg = solve_config(k);
  fs::device::DeviceContext ctx(2);
  const fs::core::SpectralResult clean =
      fs::core::spectral_cluster_graph(g.w, cfg, &ctx);
  const SymOperator op = sym_operator(g.w);
  const double limit = residual_limit(cfg);

  const auto problems_of = [&](const fs::core::SpectralResult& r) {
    std::vector<std::string> problems;
    check_solve(r, n, k, &op, limit, problems);
    return problems;
  };

  Checker checker;
  checker.record("clean", problems_of(clean));
  expect(checker.attempted() == 1 && checker.failed() == 0,
         "a clean solve passes every check");

  fs::core::SpectralResult out_of_range = clean;
  out_of_range.labels[7] = k;
  checker.record("label out of range", problems_of(out_of_range));
  expect(checker.failed() == 1, "a label outside [0, k) is a failure");

  fs::core::SpectralResult negative = clean;
  negative.labels[0] = -1;
  checker.record("negative label", problems_of(negative));
  expect(checker.failed() == 2, "a negative label is a failure");

  fs::core::SpectralResult short_labels = clean;
  short_labels.labels.pop_back();
  checker.record("short labels", problems_of(short_labels));
  expect(checker.failed() == 3, "a label vector of the wrong length is a failure");

  fs::core::SpectralResult wrong_pair = clean;
  wrong_pair.eigenvalues[1] -= 0.05;
  checker.record("wrong eigenvalue", problems_of(wrong_pair));
  expect(checker.failed() == 4, "an eigenpair off its residual is a failure");

  fs::core::SpectralResult unconverged = clean;
  unconverged.eig_converged = false;
  checker.record("unconverged", problems_of(unconverged));
  expect(checker.failed() == 5, "an unconverged solve is a failure");

  fs::core::SpectralResult detected = clean;
  detected.integrity.detected = 1;
  checker.record("sdc detected", problems_of(detected));
  expect(checker.failed() == 6, "an SDC detection on a clean run is a failure");

  expect(checker.attempted() == 7, "every recorded op counts as attempted");

  std::vector<index_t> swapped = clean.labels;
  for (index_t& l : swapped) l = (l + 1) % k;
  expect(label_hash(swapped) != label_hash(clean.labels),
         "relabelled output changes the determinism hash");
  expect(label_hash(clean.labels) == label_hash(clean.labels),
         "the determinism hash is a function of the labels");

  if (failures == 0) std::printf("perfbench checks: all passed\n");
  return failures == 0 ? 0 : 1;
}
