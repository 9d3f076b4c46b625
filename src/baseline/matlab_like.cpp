#include "baseline/matlab_like.h"

#include "common/cancel.h"
#include "sparse/spmv.h"

namespace fastsc::baseline {

sparse::Coo similarity_loop(const real* x, index_t n, index_t d,
                            const graph::EdgeList& edges,
                            const graph::SimilarityParams& params,
                            bool clamp_nonpositive) {
  const index_t nnz = edges.size();
  sparse::Coo coo(n, n);
  coo.row_idx = edges.u;
  coo.col_idx = edges.v;
  coo.values.resize(static_cast<usize>(nnz));
  for (index_t e = 0; e < nnz; ++e) {
    // Poll every 4096 edges, same work bound as the thread-pool chunks.
    if ((e & index_t{4095}) == 0) cancel::poll("similarity.row");
    const index_t i = edges.u[static_cast<usize>(e)];
    const index_t j = edges.v[static_cast<usize>(e)];
    // One "built-in function call" per edge: full recomputation, as a
    // scripting loop over corr(X(i,:), X(j,:)) executes.
    real s = graph::similarity_direct(x + i * d, x + j * d, d, params);
    if (clamp_nonpositive && s <= 1e-8) s = 1e-8;
    coo.values[static_cast<usize>(e)] = s;
  }
  return coo;
}

sparse::Coo similarity_vectorized(const real* x, index_t n, index_t d,
                                  const graph::EdgeList& edges,
                                  const graph::SimilarityParams& params,
                                  bool clamp_nonpositive) {
  return graph::build_similarity_host(x, n, d, edges, params,
                                      clamp_nonpositive);
}

HostEigResult host_eigensolve(const sparse::Csr& a, index_t nev,
                              lanczos::EigWhich which, real tol, index_t ncv,
                              index_t max_restarts, lanczos::DenseTier tier,
                              std::uint64_t seed) {
  lanczos::LanczosConfig cfg;
  cfg.n = a.rows;
  cfg.nev = nev;
  cfg.ncv = ncv;
  cfg.tol = tol;
  cfg.max_restarts = max_restarts;
  cfg.which = which;
  cfg.seed = seed;
  cfg.dense_tier = tier;

  lanczos::SymLanczos solver(cfg);
  const lanczos::RciRun run = lanczos::rci_loop(
      solver, [&](const real* x, real* y) { sparse::csr_mv(a, x, y); });
  HostEigResult out;
  out.eigenvalues = solver.eigenvalues();
  out.eigenvectors = solver.extract_eigenvectors();
  out.converged = run.action == lanczos::SymLanczos::Action::kConverged;
  out.stats = solver.stats();
  out.spmv_seconds = run.matvec_seconds;
  return out;
}

HostEigResult eigensolve_matlab(const sparse::Csr& a, index_t nev,
                                lanczos::EigWhich which, real tol, index_t ncv,
                                index_t max_restarts, std::uint64_t seed) {
  return host_eigensolve(a, nev, which, tol, ncv, max_restarts,
                         lanczos::DenseTier::kBlocked, seed);
}

kmeans::KmeansResult kmeans_matlab(const real* v, index_t n, index_t d,
                                   index_t k, index_t max_iters,
                                   std::uint64_t seed) {
  kmeans::KmeansConfig cfg;
  cfg.k = k;
  cfg.max_iters = max_iters;
  cfg.seeding = kmeans::Seeding::kRandom;
  cfg.seed = seed;
  return kmeans::kmeans_lloyd_host(v, n, d, cfg);
}

}  // namespace fastsc::baseline
