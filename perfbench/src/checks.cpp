#include "checks.h"

#include <algorithm>
#include <cmath>

#include "core/fingerprint.h"
#include "graph/laplacian.h"
#include "sparse/spmv.h"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReasons = 8;

}  // namespace

void Checker::record(const std::string& op,
                     const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems) {
    if (reasons_.size() >= kMaxReasons) break;
    reasons_.push_back(op + ": " + p);
  }
}

std::uint64_t label_hash(const std::vector<index_t>& labels) {
  return fastsc::core::fnv1a64(labels.data(), labels.size() * sizeof(index_t));
}

SymOperator sym_operator(const fastsc::sparse::Coo& w) {
  SymOperator op;
  std::vector<real> isd;
  op.s = fastsc::graph::sym_normalized_host(w, isd);
  op.sqrt_degree.resize(isd.size());
  for (std::size_t i = 0; i < isd.size(); ++i) op.sqrt_degree[i] = 1.0 / isd[i];
  return op;
}

double max_residual(const SymOperator& op,
                    const fastsc::core::SpectralResult& r) {
  const auto n = static_cast<std::size_t>(r.n);
  const auto k = static_cast<std::size_t>(r.k);
  if (r.embedding.size() != n * k || op.sqrt_degree.size() != n ||
      r.eigenvalues.size() < k) {
    return INFINITY;
  }
  std::vector<real> u(n);
  std::vector<real> su(n);
  double worst = 0;
  for (std::size_t i = 0; i < k; ++i) {
    double norm2 = 0;
    for (std::size_t j = 0; j < n; ++j) {
      u[j] = op.sqrt_degree[j] * r.embedding[j * k + i];
      norm2 += u[j] * u[j];
    }
    if (!(norm2 > 0)) return INFINITY;
    const double inv = 1.0 / std::sqrt(norm2);
    for (real& x : u) x *= inv;
    fastsc::sparse::csr_mv(op.s, u.data(), su.data());
    const double lambda = r.eigenvalues[i];
    double res2 = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = su[j] - lambda * u[j];
      res2 += d * d;
    }
    worst = std::max(worst, std::sqrt(res2));
  }
  return worst;
}

void check_residual(double residual, double limit,
                    std::vector<std::string>& problems) {
  if (!(residual <= limit)) {
    problems.push_back("residual " + std::to_string(residual) + " above " +
                       std::to_string(limit));
  }
}

void check_labels(const std::vector<index_t>& labels, index_t n, index_t k,
                  std::vector<std::string>& problems) {
  if (labels.size() != static_cast<std::size_t>(n)) {
    problems.push_back("labels have length " + std::to_string(labels.size()) +
                       ", expected " + std::to_string(n));
    return;
  }
  const auto bad = std::find_if(labels.begin(), labels.end(),
                                [k](index_t l) { return l < 0 || l >= k; });
  if (bad != labels.end()) {
    problems.push_back("label " + std::to_string(*bad) + " outside [0, " +
                       std::to_string(k) + ")");
  }
}

double check_solve(const fastsc::core::SpectralResult& r, index_t n,
                   index_t k, const SymOperator* op, double residual_limit,
                   std::vector<std::string>& problems) {
  check_labels(r.labels, n, k, problems);
  if (!r.eig_converged) problems.push_back("eigensolve did not converge");
  double res = 0;
  if (op != nullptr) {
    res = max_residual(*op, r);
    check_residual(res, residual_limit, problems);
  }
  if (r.integrity.detected > 0) {
    problems.push_back("sdc.detected = " +
                       std::to_string(r.integrity.detected) +
                       " on a fault-free run");
  }
  if (r.degradation.degraded) {
    problems.push_back(
        "degradation on a fault-free run: " +
        (r.degradation.events.empty()
             ? std::string("?")
             : r.degradation.events.front().stage + " -> " +
                   r.degradation.events.front().action));
  }
  return res;
}

double residual_limit(const fastsc::core::SpectralConfig& cfg) {
  return 10.0 * cfg.eig_tol;
}

}  // namespace perfbench
