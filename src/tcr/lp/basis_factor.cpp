#include "tcr/lp/basis_factor.hpp"

#include <chrono>
#include <cmath>
#include <thread>

#include "tcr/fault/fault.hpp"
#include "tcr/obs/registry.hpp"

namespace tcr::lp {

namespace {

// At each factorization: the Forrest–Tomlin updates since the last one and
// the nonzeros they added; then the fresh LU factor's nonzeros.
struct FactorMetrics {
  obs::Histogram& eta_length =
      obs::Registry::instance().histogram("lp.simplex.eta_length", 1.0, 2.0);
  obs::Histogram& update_fill_nnz =
      obs::Registry::instance().histogram("lp.simplex.update_fill_nnz", 1.0, 2.0);
  obs::Histogram& lu_fill_nnz =
      obs::Registry::instance().histogram("lp.simplex.lu_fill_nnz", 1.0, 2.0);

  static FactorMetrics& get() {
    static FactorMetrics m;
    return m;
  }
};

// Pivots below this magnitude are not trusted to an update.
constexpr double kTinyPivot = 1e-7;
// Relative tolerance of the determinant check.
constexpr double kDetTol = 1e-9;

}  // namespace

BasisFactor::BasisFactor(const SparseMatrix& a, int refactor_every)
    : a_(a), refactor_every_(refactor_every) {
  FactorMetrics::get();  // registered with the solver, before the first factorization
}

bool BasisFactor::refactor(const std::vector<int>& basic) {
  FactorMetrics& met = FactorMetrics::get();
  met.eta_length.record(static_cast<double>(lu_.updates()));
  met.update_fill_nnz.record(static_cast<double>(lu_.update_nnz()));
  if (auto* h = fault::simplex_hooks()) {
    // Injected slowdown (deadline/budget e2e): burn stall_ms here, at the
    // same boundary the run-control token is polled near, once the
    // stall_after skip budget is spent.
    if (h->stall_refactors.load(std::memory_order_relaxed) > 0 &&
        !fault::SimplexHooks::consume(h->stall_after) &&
        fault::SimplexHooks::consume(h->stall_refactors)) {
      h->stalls_injected.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(h->stall_ms));
    }
    if (fault::SimplexHooks::consume(h->fail_refactors)) {
      h->refactor_failures_injected.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  if (!lu_.factor(a_, basic)) return false;
  met.lu_fill_nnz.record(static_cast<double>(lu_.factor_nnz()));
  return true;
}

void BasisFactor::ftran_entering(int q, std::vector<double>& w) {
  col_.assign(static_cast<std::size_t>(a_.rows()), 0.0);
  a_.add_column_to(q, 1.0, col_);
  lu_.solve(col_, w, work_, &spike_);
}

bool BasisFactor::replace(int r, double alpha) {
  if (std::abs(alpha) < kTinyPivot) return false;
  const double want = alpha * lu_.diagonal(r);
  if (!lu_.update(r, spike_)) return false;
  if (auto* h = fault::simplex_hooks()) {
    if (h->eta_drift != 0.0 && fault::SimplexHooks::consume(h->drift_etas)) {
      h->eta_drifts_injected.fetch_add(1, std::memory_order_relaxed);
      lu_.scale_diagonal(r, 1.0 + h->eta_drift);
    }
  }
  if (std::abs(lu_.diagonal(r) - want) > kDetTol * std::abs(want)) return false;
  return !lu_.fill_exceeded() && lu_.updates() < refactor_every_;
}

}  // namespace tcr::lp
