// The reverse-communication loop of the paper's Algorithm 3:
//
//   while (!Prob.converge()) {
//     Prob.TakeStep();
//     <y = A x, with x at Prob.GetVector(), y to Prob.PutVector()>
//   }
//   Prob.FindEigenvectors();
//
// rci_loop is the only such loop in the tree: every eigensolve (the device
// pipeline, the Matlab-like and Python-like baselines, bisection, the
// benches) drives its SymLanczos through it, so every backend polls the
// same cancellation site once per wave.  `solve_symmetric` wraps it for
// callers that only have a matvec.
#pragma once

#include <functional>

#include "lanczos/irlm.h"

namespace fastsc::lanczos {

/// One reverse-communication wave: y = A x (both length n).
using Matvec = std::function<void(const real* x, real* y)>;

/// How a run of rci_loop ended.
struct RciRun {
  SymLanczos::Action action = SymLanczos::Action::kFailed;  ///< never kMultiply
  bool abandoned = false;     ///< an anytime cut froze the iteration
  double matvec_seconds = 0;  ///< wall time inside the matvec callback
};

/// Drive `solver` until it converges or fails, from whatever state it is
/// in: fresh, after restore() or after restore_warm().  Each wave polls
/// "lanczos.matvec" once and calls `matvec` once.  A deadline or
/// cancellation that fires in a wave abandons with the best partial Ritz
/// pairs when the run allows anytime results and the solver can_abandon()
/// (the governor then enters wrap-up); otherwise the CancelledError unwinds.
RciRun rci_loop(SymLanczos& solver, const Matvec& matvec);

/// Result bundle for the convenience driver.
struct SymEigResult {
  std::vector<real> eigenvalues;     // best-first per config.which
  std::vector<real> eigenvectors;    // row-major nev x n
  std::vector<real> residuals;
  bool converged = false;
  LanczosStats stats;
};

/// rci_loop over a fresh solver with `matvec(x, y)` computing y = A x.
SymEigResult solve_symmetric(const LanczosConfig& config, const Matvec& matvec);

}  // namespace fastsc::lanczos
