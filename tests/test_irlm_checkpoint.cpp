// IRLM checkpoint/resume tests: RngState round trips, restart-boundary
// capture, binary save/load, resume equivalence after a kFailed solve, the
// configuration-mismatch guard, and the pipeline-level resume_failed_solve
// degradation path driven by an injected convergence stall.
#include "lanczos/irlm.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/spectral.h"
#include "data/sbm.h"
#include "device/device.h"
#include "fault/fault.h"
#include "lanczos/rci.h"
#include "metrics/external.h"
#include "sparse/convert.h"
#include "sparse/spmv.h"

namespace fastsc::lanczos {
namespace {

sparse::Csr random_symmetric(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  sparse::Coo coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.push(i, i, rng.uniform(0, 2));
    const auto j = static_cast<index_t>(rng.uniform_index(n));
    if (j != i) {
      const real v = rng.uniform(-1, 1);
      coo.push(i, j, v);
      coo.push(j, i, v);
    }
  }
  sparse::sort_and_merge(coo);
  return sparse::coo_to_csr(coo);
}

/// Drive `solver` through the RCI loop to the end of its iteration, from
/// whatever state it is in: fresh, or restored from a checkpoint.
SymLanczos::Action run_to_done(SymLanczos& solver, const sparse::Csr& a) {
  return rci_loop(solver, [&](const real* x, real* y) {
    sparse::csr_mv(a, x, y);
  }).action;
}

TEST(RngState, RoundTripReproducesStream) {
  Rng rng(123);
  for (int i = 0; i < 17; ++i) (void)rng.uniform();
  (void)rng.normal();  // populate the cached-normal half
  const RngState snap = rng.state();
  std::vector<real> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(rng.normal());
  Rng restored(999);  // different seed: state must fully override it
  restored.set_state(snap);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(restored.normal(), expected[static_cast<usize>(i)]);
  }
}

TEST(Checkpoint, CapturedAtRestartBoundaries) {
  const index_t n = 80;
  const sparse::Csr a = random_symmetric(n, 1);
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 3;
  cfg.ncv = 8;  // small basis: forces several restarts
  cfg.tol = 1e-10;
  cfg.capture_checkpoints = true;
  SymLanczos solver(cfg);
  EXPECT_FALSE(solver.has_checkpoint());
  const auto action = run_to_done(solver, a);
  EXPECT_EQ(action, SymLanczos::Action::kConverged);
  ASSERT_TRUE(solver.has_checkpoint());
  const LanczosCheckpoint& cp = solver.last_checkpoint();
  EXPECT_TRUE(cp.valid());
  EXPECT_EQ(cp.n, n);
  EXPECT_EQ(cp.nev, 3);
  EXPECT_EQ(cp.ncv, 8);
  EXPECT_LE(cp.restart_count, solver.stats().restart_count);
  EXPECT_EQ(cp.v.size(), static_cast<usize>(9) * static_cast<usize>(n));
  EXPECT_EQ(cp.t.size(), 64u);
}

TEST(Checkpoint, CaptureOffByDefault) {
  const index_t n = 50;
  const sparse::Csr a = random_symmetric(n, 2);
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 2;
  SymLanczos solver(cfg);
  (void)run_to_done(solver, a);
  EXPECT_FALSE(solver.has_checkpoint());
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const index_t n = 60;
  const sparse::Csr a = random_symmetric(n, 3);
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 3;
  cfg.ncv = 8;
  cfg.capture_checkpoints = true;
  SymLanczos solver(cfg);
  (void)run_to_done(solver, a);
  ASSERT_TRUE(solver.has_checkpoint());
  const LanczosCheckpoint& cp = solver.last_checkpoint();

  std::stringstream ss;
  cp.save(ss);
  const LanczosCheckpoint back = LanczosCheckpoint::load(ss);
  EXPECT_EQ(back.n, cp.n);
  EXPECT_EQ(back.nev, cp.nev);
  EXPECT_EQ(back.ncv, cp.ncv);
  EXPECT_EQ(back.which, cp.which);
  EXPECT_EQ(back.j, cp.j);
  EXPECT_EQ(back.nkept, cp.nkept);
  EXPECT_EQ(back.beta_last, cp.beta_last);
  EXPECT_EQ(back.v, cp.v);
  EXPECT_EQ(back.t, cp.t);
  EXPECT_EQ(back.restart_count, cp.restart_count);
  EXPECT_EQ(back.matvec_count, cp.matvec_count);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back.rng.s[i], cp.rng.s[i]);
}

TEST(Checkpoint, LoadRejectsBadMagic) {
  const index_t n = 40;
  const sparse::Csr a = random_symmetric(n, 4);
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 2;
  cfg.capture_checkpoints = true;
  SymLanczos solver(cfg);
  (void)run_to_done(solver, a);
  ASSERT_TRUE(solver.has_checkpoint());
  std::stringstream ss;
  solver.last_checkpoint().save(ss);
  std::string bytes = ss.str();
  bytes[0] ^= 0x5a;  // corrupt the magic
  std::stringstream bad(bytes);
  EXPECT_THROW((void)LanczosCheckpoint::load(bad), std::invalid_argument);
  std::stringstream truncated(std::string(bytes.data(), 4));
  EXPECT_THROW((void)LanczosCheckpoint::load(truncated),
               std::invalid_argument);
}

TEST(Checkpoint, ResumeAfterFailureMatchesUninterruptedSolve) {
  const index_t n = 90;
  const sparse::Csr a = random_symmetric(n, 5);

  // Reference: ample budget, no interruptions.
  LanczosConfig full;
  full.n = n;
  full.nev = 3;
  full.ncv = 8;
  full.tol = 1e-10;
  full.max_restarts = 300;
  SymLanczos reference(full);
  ASSERT_EQ(run_to_done(reference, a), SymLanczos::Action::kConverged);

  // Interrupted: same solve with a starved restart budget fails...
  LanczosConfig starved = full;
  starved.max_restarts = 2;
  starved.capture_checkpoints = true;
  SymLanczos solver(starved);
  ASSERT_EQ(run_to_done(solver, a), SymLanczos::Action::kFailed);
  ASSERT_TRUE(solver.has_checkpoint());

  // ...then resumes from its last restart boundary with the full budget and
  // must land on the same eigenvalues.
  const LanczosCheckpoint cp = solver.last_checkpoint();
  solver.restore(cp);
  solver.set_max_restarts(300);
  ASSERT_EQ(run_to_done(solver, a), SymLanczos::Action::kConverged);
  ASSERT_EQ(solver.eigenvalues().size(), reference.eigenvalues().size());
  for (usize i = 0; i < reference.eigenvalues().size(); ++i) {
    EXPECT_NEAR(solver.eigenvalues()[i], reference.eigenvalues()[i], 1e-8);
  }
  // The resumed stats continue the checkpointed counts, not the failed tail.
  EXPECT_GE(solver.stats().restart_count, cp.restart_count);
}

TEST(Checkpoint, ResumeIntoFreshSolverViaSerialization) {
  const index_t n = 70;
  const sparse::Csr a = random_symmetric(n, 6);
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 3;
  cfg.ncv = 8;
  cfg.tol = 1e-10;
  cfg.max_restarts = 2;
  cfg.capture_checkpoints = true;
  SymLanczos first(cfg);
  ASSERT_EQ(run_to_done(first, a), SymLanczos::Action::kFailed);
  std::stringstream ss;
  first.last_checkpoint().save(ss);

  // A brand-new solver (different process in real life) picks it up.
  LanczosConfig resumed_cfg = cfg;
  resumed_cfg.max_restarts = 300;
  SymLanczos second(resumed_cfg);
  second.restore(LanczosCheckpoint::load(ss));
  ASSERT_EQ(run_to_done(second, a), SymLanczos::Action::kConverged);

  LanczosConfig full = cfg;
  full.max_restarts = 300;
  full.capture_checkpoints = false;
  SymLanczos reference(full);
  ASSERT_EQ(run_to_done(reference, a), SymLanczos::Action::kConverged);
  for (usize i = 0; i < reference.eigenvalues().size(); ++i) {
    EXPECT_NEAR(second.eigenvalues()[i], reference.eigenvalues()[i], 1e-8);
  }
}

TEST(Checkpoint, RestoreRejectsConfigMismatch) {
  const index_t n = 40;
  const sparse::Csr a = random_symmetric(n, 7);
  LanczosConfig cfg;
  cfg.n = n;
  cfg.nev = 2;
  cfg.ncv = 8;
  cfg.capture_checkpoints = true;
  SymLanczos solver(cfg);
  (void)run_to_done(solver, a);
  ASSERT_TRUE(solver.has_checkpoint());
  const LanczosCheckpoint cp = solver.last_checkpoint();

  LanczosConfig other = cfg;
  other.n = n + 1;
  SymLanczos wrong_n(other);
  EXPECT_THROW(wrong_n.restore(cp), std::invalid_argument);

  other = cfg;
  other.ncv = 10;
  SymLanczos wrong_ncv(other);
  EXPECT_THROW(wrong_ncv.restore(cp), std::invalid_argument);

  other = cfg;
  other.which = EigWhich::kSmallestAlgebraic;
  SymLanczos wrong_which(other);
  EXPECT_THROW(wrong_which.restore(cp), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pipeline-level resume: an injected convergence stall exhausts the restart
// budget, and DegradationPolicy::resume_failed_solve continues from the
// checkpoint with an extended budget instead of falling back.
// ---------------------------------------------------------------------------

TEST(Checkpoint, PipelineResumesFailedSolveFromCheckpoint) {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(200, 4);
  p.p_in = 0.5;
  p.p_out = 0.02;
  p.seed = 3;
  const data::SbmGraph g = data::make_sbm(p);

  core::SpectralConfig cfg;
  cfg.num_clusters = 4;
  cfg.backend = core::Backend::kDevice;
  cfg.seed = 42;
  cfg.max_restarts = 4;
  cfg.degradation.resume_failed_solve = true;
  // Stall exactly the checks of the first attempt (restarts 0..4); the
  // resumed attempt's checks see the real convergence state.
  cfg.faults =
      fault::FaultPlan::parse("site=lanczos.convergence,nth=1,count=5");
  device::DeviceContext ctx(1);
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg, &ctx);
  fault::injector().disarm();

  EXPECT_TRUE(r.eig_converged);
  ASSERT_TRUE(r.degradation.degraded);
  bool resumed = false;
  for (const core::DegradationEvent& e : r.degradation.events) {
    if (e.action == "solver-resume") resumed = true;
  }
  EXPECT_TRUE(resumed);
  EXPECT_GT(metrics::adjusted_rand_index(r.labels, g.labels), 0.95);
}

TEST(Checkpoint, PipelineResumeBudgetIsBounded) {
  data::SbmParams p;
  p.block_sizes = data::equal_blocks(120, 3);
  p.p_in = 0.5;
  p.p_out = 0.02;
  p.seed = 4;
  const data::SbmGraph g = data::make_sbm(p);

  core::SpectralConfig cfg;
  cfg.num_clusters = 3;
  cfg.backend = core::Backend::kDevice;
  cfg.max_restarts = 2;
  cfg.degradation.resume_failed_solve = true;
  cfg.degradation.max_solver_resumes = 1;
  // A permanent stall: the resume also fails, and the pipeline reports the
  // partial result rather than resuming forever.
  cfg.faults =
      fault::FaultPlan::parse("site=lanczos.convergence,nth=1,count=0");
  device::DeviceContext ctx(1);
  const core::SpectralResult r = core::spectral_cluster_graph(g.w, cfg, &ctx);
  fault::injector().disarm();

  EXPECT_FALSE(r.eig_converged);
  index_t resumes = 0;
  for (const core::DegradationEvent& e : r.degradation.events) {
    if (e.action == "solver-resume") ++resumes;
  }
  EXPECT_EQ(resumes, 1);
  EXPECT_EQ(r.labels.size(), static_cast<usize>(g.w.rows));
}

}  // namespace
}  // namespace fastsc::lanczos
