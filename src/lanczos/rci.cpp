#include "lanczos/rci.h"

#include "common/cancel.h"
#include "common/timer.h"

namespace fastsc::lanczos {

RciRun rci_loop(SymLanczos& solver, const Matvec& matvec) {
  using Action = SymLanczos::Action;
  RciRun run;
  try {
    run.action = solver.awaits_product() ? Action::kMultiply : solver.step();
    while (run.action == Action::kMultiply) {
      // One poll per wave: bounded work between polls is one matvec plus
      // one step().
      cancel::poll("lanczos.matvec");
      WallTimer t;
      matvec(solver.multiply_input().data(), solver.multiply_output().data());
      run.matvec_seconds += t.seconds();
      run.action = solver.step();
    }
  } catch (const cancel::CancelledError& e) {
    cancel::Governor& gov = cancel::current_governor();
    // Too early for partial Ritz pairs, or not an anytime cut: unwind (the
    // pipeline reruns the stage under wrap-up when anytime is allowed).
    if (!gov.anytime_allowed() || !solver.can_abandon()) throw;
    // Anytime cut: freeze the iteration, keep the best partial Ritz pairs,
    // and stop enforcement so the rest of the run completes unimpeded.
    run.action = solver.abandon();
    run.abandoned = true;
    gov.begin_wrapup(e.site().empty() ? e.what() : e.site());
  }
  return run;
}

SymEigResult solve_symmetric(const LanczosConfig& config,
                             const Matvec& matvec) {
  SymLanczos solver(config);
  const RciRun run = rci_loop(solver, matvec);
  SymEigResult result;
  result.eigenvalues = solver.eigenvalues();
  result.residuals = solver.residuals();
  result.eigenvectors = solver.extract_eigenvectors();
  result.converged = run.action == SymLanczos::Action::kConverged;
  result.stats = solver.stats();
  return result;
}

}  // namespace fastsc::lanczos
