// Shared host-side eigensolver driver for the scripting-environment
// baselines: the same reverse-communication IRLM and the same loop
// (lanczos::rci_loop, deadline and cancel token included) as the device
// pipeline, but with the SpMV executed by the serial CPU csr_mv — exactly
// how Matlab's eigs() and SciPy's eigsh() run ARPACK against their built-in
// SpMV.
#pragma once

#include "lanczos/rci.h"
#include "sparse/csr.h"

namespace fastsc::baseline {

struct HostEigResult {
  std::vector<real> eigenvalues;
  std::vector<real> eigenvectors;  // row-major nev x n
  bool converged = false;
  lanczos::LanczosStats stats;
  /// Wall time spent inside the SpMV callbacks (the "BLAS side").
  double spmv_seconds = 0;
};

/// Compute the nev best eigenpairs of `a` per `which` with the CPU SpMV.
/// `tier` selects the dense-kernel quality for the CPU-side restart work
/// (kBlocked = Matlab-like optimized BLAS, kNaive = unoptimized build).
[[nodiscard]] HostEigResult host_eigensolve(const sparse::Csr& a, index_t nev,
                                            lanczos::EigWhich which, real tol,
                                            index_t ncv, index_t max_restarts,
                                            lanczos::DenseTier tier,
                                            std::uint64_t seed = 42);

}  // namespace fastsc::baseline
