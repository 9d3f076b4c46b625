// cluster_file: command-line spectral clustering over files.
//
//   $ ./cluster_file --input graph.txt --k 10 --output labels.txt
//   $ ./cluster_file --input matrix.mtx --format mtx --k 50 --backend python
//   $ ./cluster_file --input points.txt --format points --k 8 --knn 10
//
// The downstream-user entry point: reads a graph (SNAP edge list or Matrix
// Market) or a dense point set, runs the pipeline with the chosen backend,
// writes one label per line, and prints stage times plus basic quality
// numbers (Ncut; ARI if --truth is given).
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "core/bisection.h"
#include "core/spectral.h"
#include "data/io.h"
#include "graph/build.h"
#include "graph/components.h"
#include "metrics/cut.h"
#include "metrics/external.h"
#include "sparse/convert.h"

int main(int argc, char** argv) {
  using namespace fastsc;
  CliParser cli("cluster_file: spectral clustering for graph / point files");
  const bool run = cli.parse(argc, argv);
  const std::string input = cli.get_string("input", "", "input file path");
  const std::string format = cli.get_string(
      "format", "edges", "edges (SNAP edge list) | mtx (MatrixMarket) | "
                         "points (dense rows)");
  const auto k = cli.get_int("k", 8, "number of clusters");
  const std::string backend_name_flag =
      cli.get_string("backend", "device", "device | matlab | python");
  const std::string method = cli.get_string(
      "method", "kway", "kway (paper pipeline) | bisection (recursive)");
  const std::string output =
      cli.get_string("output", "labels.txt", "output labels file");
  const std::string truth_file =
      cli.get_string("truth", "", "optional ground-truth labels file");
  const auto knn = cli.get_int(
      "knn", 10, "neighbors for the kNN graph (points format only)");
  const std::string measure = cli.get_string(
      "measure", "expdecay", "similarity for points: cosine | crosscorr | "
                             "expdecay");
  const auto sigma = cli.get_double("sigma", 1.0, "RBF bandwidth (expdecay)");
  const auto seed = cli.get_int("seed", 42, "random seed");
  const bool keep_largest = cli.get_bool(
      "largest-component", true,
      "cluster only the largest connected component (recommended)");
  if (!run || input.empty()) {
    cli.print_help();
    return input.empty() && run ? 1 : 0;
  }
  cli.check_unknown();

  // --- load ---------------------------------------------------------------
  sparse::Coo w;
  if (format == "edges") {
    w = data::read_edge_list(input, /*symmetrize=*/true);
  } else if (format == "mtx") {
    w = data::read_matrix_market(input);
  } else if (format == "points") {
    index_t rows = 0, cols = 0;
    const std::vector<real> pts = data::read_points(input, rows, cols);
    std::printf("read %lld points of dimension %lld\n",
                static_cast<long long>(rows), static_cast<long long>(cols));
    graph::SimilarityParams sp;
    sp.measure = graph::parse_measure(measure);
    sp.sigma = sigma;
    w = graph::build_knn_graph(pts.data(), rows, cols, knn, sp);
  } else {
    std::fprintf(stderr, "unknown --format %s\n", format.c_str());
    return 1;
  }
  std::printf("graph: %lld nodes, %lld stored entries\n",
              static_cast<long long>(w.rows),
              static_cast<long long>(w.nnz()));

  // --- component handling ---------------------------------------------------
  std::vector<index_t> old_of_new;
  const graph::ComponentInfo comp = graph::connected_components(w);
  if (comp.count > 1) {
    std::printf("note: %lld connected components",
                static_cast<long long>(comp.count));
    if (keep_largest) {
      w = graph::largest_component(w, old_of_new);
      std::printf("; clustering the largest (%lld nodes)",
                  static_cast<long long>(w.rows));
    }
    std::printf("\n");
  }
  FASTSC_CHECK(k <= w.rows, "k exceeds the (component) node count");

  // --- run ------------------------------------------------------------------
  std::vector<index_t> labels;
  StageClock clock;
  bool converged = true;
  if (method == "bisection") {
    core::BisectionConfig bcfg;
    bcfg.num_clusters = k;
    bcfg.seed = static_cast<std::uint64_t>(seed);
    core::BisectionResult result = core::spectral_bisection(w, bcfg);
    labels = std::move(result.labels);
    clock = result.clock;
    converged = result.all_converged;
  } else {
    core::SpectralConfig cfg;
    cfg.num_clusters = k;
    cfg.backend = backend_name_flag == "matlab"
                      ? core::Backend::kMatlabLike
                  : backend_name_flag == "python" ? core::Backend::kPythonLike
                                                  : core::Backend::kDevice;
    cfg.seed = static_cast<std::uint64_t>(seed);
    core::SpectralResult result = core::spectral_cluster_graph(w, cfg);
    labels = std::move(result.labels);
    clock = result.clock;
    converged = result.eig_converged;
  }

  // --- report + write -------------------------------------------------------
  TextTable table("Result");
  table.header({"metric", "value"});
  for (const auto& stage : clock.stages()) {
    table.row({stage + " seconds",
               TextTable::fmt_seconds(clock.seconds(stage))});
  }
  const sparse::Csr w_csr = sparse::coo_to_csr(w);
  table.row({"Ncut",
             TextTable::fmt(metrics::normalized_cut(w_csr, labels, k), 4)});
  table.row({"eigensolver converged", converged ? "yes" : "no"});

  std::vector<index_t> labels_full;
  if (!old_of_new.empty()) {
    // Map back to original vertex ids; vertices outside the clustered
    // component get the sentinel label k.
    labels_full.assign(static_cast<usize>(comp.component_of.size()), k);
    for (usize i = 0; i < old_of_new.size(); ++i) {
      labels_full[static_cast<usize>(old_of_new[i])] = labels[i];
    }
  } else {
    labels_full = labels;
  }

  if (!truth_file.empty()) {
    const std::vector<index_t> truth = data::read_labels(truth_file);
    if (truth.size() == labels_full.size()) {
      table.row({"ARI vs truth",
                 TextTable::fmt(
                     metrics::adjusted_rand_index(labels_full, truth), 4)});
      table.row({"NMI vs truth",
                 TextTable::fmt(metrics::normalized_mutual_information(
                                    labels_full, truth),
                                4)});
    } else {
      std::fprintf(stderr, "truth size mismatch: %zu vs %zu\n", truth.size(),
                   labels_full.size());
    }
  }
  table.print();

  data::write_labels(output, labels_full);
  std::printf("wrote %s\n", output.c_str());
  return 0;
}
