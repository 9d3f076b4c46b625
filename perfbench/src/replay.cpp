#include "replay.h"

#include <cmath>

#include "graph/build.h"
#include "graph/laplacian.h"
#include "kmeans/kmeans.h"
#include "lanczos/irlm.h"
#include "sparse/spmv.h"

namespace perfbench {

namespace fs = fastsc;

namespace {

using Action = fs::lanczos::SymLanczos::Action;

/// Steps 2-4 from a device-resident similarity matrix.
ReplayResult replay_from_device_coo(fs::device::DeviceContext& ctx,
                                    fs::sparse::DeviceCoo& w,
                                    const fs::core::SpectralConfig& cfg,
                                    SpanRecorder& rec, std::uint64_t op) {
  const index_t n = w.rows;
  const index_t k = cfg.num_clusters;
  const auto un = static_cast<std::size_t>(n);
  ReplayResult out;

  fs::device::DeviceBuffer<fs::real> dev_isd;
  fs::sparse::DeviceCsr p;
  {
    ScopedSpan s(rec, "graph.normalize", op);
    p = fs::graph::sym_normalized_device(ctx, w, dev_isd);
  }
  out.spmv_bytes = static_cast<double>(p.nnz()) *
                       (sizeof(fs::real) + sizeof(index_t)) +
                   static_cast<double>(n + 1) * sizeof(index_t) +
                   2.0 * static_cast<double>(n) * sizeof(fs::real);

  fs::lanczos::LanczosConfig ec;
  ec.n = n;
  ec.nev = k;
  ec.ncv = cfg.ncv;
  ec.tol = cfg.eig_tol;
  ec.max_restarts = cfg.max_restarts;
  ec.which = cfg.which;
  ec.seed = cfg.seed;
  fs::lanczos::SymLanczos solver(ec);
  fs::device::DeviceBuffer<fs::real> dev_x(ctx, un);
  fs::device::DeviceBuffer<fs::real> dev_y(ctx, un);
  {
    ScopedSpan solve(rec, "lanczos.solve", op);
    Action a;
    {
      ScopedSpan s(rec, "lanczos.step", op);
      a = solver.step();
    }
    while (a == Action::kMultiply) {
      {
        ScopedSpan mv(rec, "lanczos.matvec", op);
        {
          ScopedSpan s(rec, "device.stage", op);
          dev_x.copy_from_host(solver.multiply_input());
        }
        {
          ScopedSpan s(rec, "sparse.spmv", op);
          fs::sparse::device_csrmv_balanced(ctx, p, dev_x.data(), dev_y.data());
        }
        {
          ScopedSpan s(rec, "device.stage", op);
          dev_y.copy_to_host(solver.multiply_output());
        }
      }
      ++out.matvecs;
      ScopedSpan s(rec, "lanczos.step", op);
      a = solver.step();
    }
    out.eig_converged = a == Action::kConverged;
  }
  std::vector<fs::real> vectors;
  {
    ScopedSpan s(rec, "lanczos.ritz", op);
    vectors = solver.extract_eigenvectors();
  }

  // Embedding: eigenvectors of S mapped back through D^-1/2, unit columns
  // (what the pipeline hands k-means).
  const std::vector<fs::real> isd = dev_isd.to_host();
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t cols = std::min(uk, vectors.size() / un);
  std::vector<fs::real> emb(un * uk, 0.0);
  for (std::size_t i = 0; i < cols; ++i) {
    double norm2 = 0;
    for (std::size_t j = 0; j < un; ++j) {
      const fs::real v = vectors[i * un + j] * isd[j];
      emb[j * uk + i] = v;
      norm2 += v * v;
    }
    if (norm2 > 0) {
      const double inv = 1.0 / std::sqrt(norm2);
      for (std::size_t j = 0; j < un; ++j) emb[j * uk + i] *= inv;
    }
  }

  fs::kmeans::KmeansConfig kc;
  kc.k = k;
  kc.max_iters = cfg.kmeans_max_iters;
  kc.seeding = cfg.seeding;
  kc.seed = cfg.seed;
  kc.async_pipeline = cfg.async_pipeline;
  kc.abft = cfg.sdc.enabled && cfg.sdc.abft_kmeans;
  {
    ScopedSpan s(rec, "kmeans", op);
    out.labels = fs::kmeans::kmeans_device(ctx, emb.data(), n, k, kc).labels;
  }
  return out;
}

}  // namespace

ReplayResult replay_points(fs::device::DeviceContext& ctx, const fs::real* x,
                           index_t n, index_t d,
                           const fs::graph::EdgeList& edges,
                           const fs::core::SpectralConfig& cfg,
                           SpanRecorder& rec, std::uint64_t op) {
  ScopedSpan root(rec, "replay", op);
  const fs::graph::EdgeList sym = fs::graph::symmetrized(edges);
  fs::sparse::DeviceCoo w;
  {
    ScopedSpan s(rec, "graph.similarity", op);
    w = fs::graph::build_similarity_device(ctx, x, n, d, sym, cfg.similarity);
  }
  return replay_from_device_coo(ctx, w, cfg, rec, op);
}

ReplayResult replay_graph(fs::device::DeviceContext& ctx,
                          const fs::sparse::Coo& w,
                          const fs::core::SpectralConfig& cfg,
                          SpanRecorder& rec, std::uint64_t op) {
  ScopedSpan root(rec, "replay", op);
  fs::sparse::DeviceCoo dev_w;
  {
    ScopedSpan s(rec, "device.upload", op);
    dev_w = fs::sparse::DeviceCoo(ctx, w);
  }
  return replay_from_device_coo(ctx, dev_w, cfg, rec, op);
}

}  // namespace perfbench
