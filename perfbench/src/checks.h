// Output checks applied to every op the benchmark runs.
//
// A check that fails marks its op failed and the run carries on; the
// failures are counted against the ops attempted (error_rate) instead of
// aborting the measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spectral.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

namespace perfbench {

using fastsc::index_t;
using fastsc::real;

/// Counts ops attempted and failed; keeps the first few failure reasons.
class Checker {
 public:
  /// Record one op; it failed when `problems` is non-empty.
  void record(const std::string& op, const std::vector<std::string>& problems);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const noexcept {
    return reasons_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// FNV-1a over the label bytes: equal hashes across repeats of one op show
/// the run is deterministic at a fixed worker count.
[[nodiscard]] std::uint64_t label_hash(const std::vector<index_t>& labels);

/// The symmetric operator S = D^-1/2 W D^-1/2 the eigensolver works on,
/// built on the host from the input graph, plus sqrt(d_i), which maps the
/// pipeline's embedding columns back onto eigenvectors of S.
struct SymOperator {
  fastsc::sparse::Csr s;
  std::vector<real> sqrt_degree;
};
[[nodiscard]] SymOperator sym_operator(const fastsc::sparse::Coo& w);

/// max_i ||S u_i - lambda_i u_i|| over the result's eigenpairs, recomputed
/// with the host fastsc::sparse::csr_mv; u_i is the unit vector along
/// sqrt(d) (.) embedding column i.
[[nodiscard]] double max_residual(const SymOperator& op,
                                  const fastsc::core::SpectralResult& r);

/// A recomputed residual (max_residual) is within `limit`.
void check_residual(double residual, double limit,
                    std::vector<std::string>& problems);

/// Labels have length n and lie in [0, k).
void check_labels(const std::vector<index_t>& labels, index_t n, index_t k,
                  std::vector<std::string>& problems);

/// Everything one solved op must satisfy: valid labels, a converged
/// eigensolve, a recomputed residual within `residual_limit` (skipped when
/// `op` is null), and, on a fault-free run, no SDC detection and no
/// degradation event.  Returns the recomputed residual (0 when skipped).
double check_solve(const fastsc::core::SpectralResult& r, index_t n, index_t k,
                 const SymOperator* op, double residual_limit,
                 std::vector<std::string>& problems);

/// The residual limit checked against: the solve tolerance (relative to
/// ||S|| = 1), with room for the roundoff of the embedding round trip.
[[nodiscard]] double residual_limit(const fastsc::core::SpectralConfig& cfg);

}  // namespace perfbench
