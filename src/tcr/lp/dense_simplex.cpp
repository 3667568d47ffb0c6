#include "tcr/lp/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tcr/lin/dense_matrix.hpp"
#include "tcr/lp/standard_form.hpp"
#include "tcr/util/check.hpp"

namespace tcr::lp {

namespace {

using detail::kAtLower;
using detail::kAtUpper;
using detail::kBasic;
using detail::kFree;
using detail::StandardForm;
using detail::VarStatus;

class DenseSimplex {
 public:
  DenseSimplex(const StandardForm& sf, const DenseSimplexOptions& opt)
      : sf_(sf), opt_(opt), m_(sf.m), n_(sf.ntotal), a_(sf.m, sf.ntotal), binv_(sf.m, sf.m) {
    for (const auto& t : sf_.triplets) a_(t.row, t.col) += t.value;
    // The all-logical start basis: each logical column has a single +/-1
    // coefficient, so B^-1 is diagonal with the same signs.
    stat_.assign(static_cast<std::size_t>(n_), kBasic);
    basic_.resize(static_cast<std::size_t>(m_));
    for (int j = 0; j < sf_.nstruct; ++j) stat_[j] = detail::start_status(sf_.lo[j], sf_.up[j]);
    for (int i = 0; i < m_; ++i) {
      basic_[i] = sf_.nstruct + i;
      binv_(i, i) = 1.0 / a_(i, basic_[i]);
    }
    compute_basic_values();
  }

  Solution run() {
    Solution sol;
    long iters = 0;
    // Phase 1 minimizes the sum of the basic bound violations, phase 2 the
    // true costs.
    Status s = optimize(/*phase1=*/true, iters);
    sol.phase1_iterations = iters;
    if (s == Status::Optimal && infeasibility() > 1e-7) s = Status::Infeasible;
    if (s == Status::Optimal) s = optimize(/*phase1=*/false, iters);
    sol.iterations = iters;
    sol.status = s;
    if (s == Status::Optimal) extract(sol);
    export_basis(sol);
    return sol;
  }

 private:
  void compute_basic_values() {
    std::vector<double> rhs = sf_.b;
    for (int j = 0; j < n_; ++j) {
      if (stat_[j] == kBasic) continue;
      const double v = nonbasic_value(j);
      if (v == 0.0) continue;
      for (int i = 0; i < m_; ++i) rhs[i] -= a_(i, j) * v;
    }
    xb_.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      double acc = 0.0;
      for (int r = 0; r < m_; ++r) acc += binv_(i, r) * rhs[r];
      xb_[i] = acc;
    }
  }

  double nonbasic_value(int j) const {
    switch (stat_[j]) {
      case kAtLower: return sf_.lo[j];
      case kAtUpper: return sf_.up[j];
      default: return 0.0;
    }
  }

  // How far basic i lies above its upper bound (> 0) or below its lower
  // bound (< 0); 0 when within tolerance.
  double violation(int i) const {
    const int j = basic_[i];
    if (xb_[i] > sf_.up[j] + opt_.tol) return xb_[i] - sf_.up[j];
    if (xb_[i] < sf_.lo[j] - opt_.tol) return xb_[i] - sf_.lo[j];
    return 0.0;
  }

  double infeasibility() const {
    double sum = 0.0;
    for (int i = 0; i < m_; ++i) sum += std::abs(violation(i));
    return sum;
  }

  // Phase 1 prices the basics by the sign of their violations (a column off
  // the basis costs nothing) and lets a violating basic move only back to
  // the bound it violates; the costs are re-read every iteration, and phase
  // 1 ends once nothing is violated.
  Status optimize(bool phase1, long& iters) {
    std::vector<double> cost = sf_.cost;
    std::vector<double> lo = sf_.lo, up = sf_.up;  // of each basic's ratio test
    std::vector<double> y(static_cast<std::size_t>(m_));
    std::vector<double> w(static_cast<std::size_t>(m_));
    const double tol = opt_.tol;

    for (;;) {
      if (phase1) {
        std::fill(cost.begin(), cost.end(), 0.0);
        lo = sf_.lo;
        up = sf_.up;
        bool violated = false;
        for (int i = 0; i < m_; ++i) {
          const double v = violation(i);
          if (v == 0.0) continue;
          const int j = basic_[i];
          violated = true;
          cost[j] = v > 0 ? 1.0 : -1.0;
          lo[j] = v > 0 ? sf_.up[j] : -kInf;
          up[j] = v > 0 ? kInf : sf_.lo[j];
        }
        if (!violated) return Status::Optimal;
      }
      if (++iters > opt_.max_iterations) return Status::IterationLimit;

      // y = B^-T c_B.
      for (int i = 0; i < m_; ++i) {
        double acc = 0.0;
        for (int r = 0; r < m_; ++r) acc += cost[basic_[r]] * binv_(r, i);
        y[i] = acc;
      }

      // Bland's rule: first eligible column.
      int q = -1, dir = 0;
      for (int j = 0; j < n_ && q < 0; ++j) {
        if (stat_[j] == kBasic) continue;
        if (sf_.lo[j] == sf_.up[j]) continue;  // fixed
        double d = cost[j];
        for (int i = 0; i < m_; ++i) d -= y[i] * a_(i, j);
        switch (stat_[j]) {
          case kAtLower:
            if (d < -tol) { q = j; dir = 1; }
            break;
          case kAtUpper:
            if (d > tol) { q = j; dir = -1; }
            break;
          case kFree:
            if (d < -tol) { q = j; dir = 1; }
            else if (d > tol) { q = j; dir = -1; }
            break;
          default: break;
        }
      }
      if (q < 0) return Status::Optimal;

      // w = B^-1 a_q.
      for (int i = 0; i < m_; ++i) {
        double acc = 0.0;
        for (int r = 0; r < m_; ++r) acc += binv_(i, r) * a_(r, q);
        w[i] = acc;
      }

      // Ratio test (Bland tie-breaking: smallest basic column index).
      double t_max = sf_.up[q] - sf_.lo[q];  // own-bound flip distance
      if (!std::isfinite(t_max)) t_max = kInf;
      int leave = -1;  // -1: bound flip
      for (int i = 0; i < m_; ++i) {
        const double delta = dir * w[i];
        if (std::abs(delta) <= 1e-11) continue;
        const int bj = basic_[i];
        double t;
        if (delta > 0) {
          if (!std::isfinite(lo[bj])) continue;
          t = (xb_[i] - lo[bj]) / delta;
        } else {
          if (!std::isfinite(up[bj])) continue;
          t = (up[bj] - xb_[i]) / (-delta);
        }
        t = std::max(t, 0.0);
        if (t < t_max - 1e-12 ||
            (t < t_max + 1e-12 && leave >= 0 && bj < basic_[leave])) {
          t_max = t;
          leave = i;
        }
      }

      if (!std::isfinite(t_max)) return Status::Unbounded;

      if (leave < 0) {
        // Bound flip: no basis change.
        for (int i = 0; i < m_; ++i) xb_[i] -= t_max * dir * w[i];
        stat_[q] = (stat_[q] == kAtLower) ? kAtUpper : kAtLower;
        continue;
      }

      // Pivot.
      const double enter_val = nonbasic_value(q) + dir * t_max;
      for (int i = 0; i < m_; ++i) xb_[i] -= t_max * dir * w[i];
      const int out = basic_[leave];
      const double bound = dir * w[leave] > 0 ? lo[out] : up[out];  // the one it reached
      stat_[out] = bound == sf_.lo[out] ? kAtLower : kAtUpper;
      basic_[leave] = q;
      stat_[q] = kBasic;
      xb_[leave] = enter_val;

      // Explicit inverse update.
      const double pivot = w[leave];
      for (int c = 0; c < m_; ++c) binv_(leave, c) /= pivot;
      for (int i = 0; i < m_; ++i) {
        if (i == leave) continue;
        const double f = w[i];
        if (f == 0.0) continue;
        for (int c = 0; c < m_; ++c) binv_(i, c) -= f * binv_(leave, c);
      }
    }
  }

  void export_basis(Solution& sol) const {
    sol.basis.stat.assign(stat_.begin(), stat_.end());
    sol.basis.basic = basic_;
  }

  void extract(Solution& sol) const {
    std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j)
      if (stat_[j] != kBasic) x[j] = nonbasic_value(j);
    for (int i = 0; i < m_; ++i) x[basic_[i]] = xb_[i];

    const double sign = sf_.maximize ? -1.0 : 1.0;
    sol.x.assign(x.begin(), x.begin() + sf_.nstruct);
    double obj = 0.0;
    for (int j = 0; j < n_; ++j) obj += sf_.cost[j] * x[j];
    sol.objective = sign * obj;

    sol.duals.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      double acc = 0.0;
      for (int r = 0; r < m_; ++r) acc += sf_.cost[basic_[r]] * binv_(r, i);
      sol.duals[i] = sign * acc;
    }
    sol.reduced.assign(static_cast<std::size_t>(sf_.nstruct), 0.0);
    for (int j = 0; j < sf_.nstruct; ++j) {
      double d = sign * sf_.cost[j];
      for (int i = 0; i < m_; ++i) d -= sol.duals[i] * a_(i, j);
      sol.reduced[j] = d;
    }
  }

  StandardForm sf_;
  DenseSimplexOptions opt_;
  int m_, n_;
  DenseMatrix a_;
  DenseMatrix binv_;
  std::vector<VarStatus> stat_;
  std::vector<int> basic_;
  std::vector<double> xb_;
};

}  // namespace

Solution solve_dense(const Model& model, const DenseSimplexOptions& options) {
  TCR_REQUIRE(model.num_rows() > 0 || model.num_cols() > 0, "empty model");
  auto sf = detail::build_standard_form(model);
  DenseSimplex simplex(sf, options);
  return simplex.run();
}

}  // namespace tcr::lp
