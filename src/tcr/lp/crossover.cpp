#include "tcr/lp/crossover.hpp"

#include <algorithm>
#include <cmath>

#include "tcr/lp/basis_factor.hpp"
#include "tcr/lp/pivot_kernels.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/lp/standard_form.hpp"

namespace tcr::lp {

namespace {

using detail::kAtLower;
using detail::kAtUpper;

// Smallest |(B^-1 a_j)_i| taken as a pivot when a column swaps in for a
// basic at a bound without moving the point.
constexpr double kPivotTol = 1e-7;
// How far x may violate a row or bound, and how close to a bound a basic
// variable counts as at it.
constexpr double kTol = 1e-9;
// Values this close to a column's crash value count as at it.
constexpr double kSnapTol = 1e-12;

class Crossover {
 public:
  explicit Crossover(const Model& model)
      : sf_(detail::build_standard_form(model)),
        m_(sf_.m),
        n_(sf_.ntotal),
        a_(sf_.m, sf_.ntotal, sf_.triplets),
        factor_(a_, SimplexOptions().refactor_every) {
    std::vector<Triplet>().swap(sf_.triplets);
  }

  // The vertex's basis, written into `basis` (whose basic list is already
  // sized to the row count); false when x is infeasible or a factorization
  // fails.
  bool run(const std::vector<double>& x, Basis& basis) {
    if (m_ == 0 || !place(x) || !refactor()) return false;
    for (int j = 0; j < sf_.nstruct; ++j) {
      if (sf_.lo[j] == sf_.up[j] || z_[j] == crash_value(j)) continue;
      if (!bring_in(j)) return false;
    }
    std::copy(basic_.begin(), basic_.end(), basis.basic.begin());
    basis.stat.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      basis.stat[j] = z_[j] == sf_.lo[j] ? kAtLower : z_[j] == sf_.up[j] ? kAtUpper : detail::kFree;
    }
    for (const int j : basic_) basis.stat[j] = detail::kBasic;
    return true;
  }

 private:
  // The value a structural column takes in the all-logical basis: the
  // bound nearest zero, zero for a free column.
  double crash_value(int j) const {
    const detail::VarStatus s = detail::start_status(sf_.lo[j], sf_.up[j]);
    return s == kAtLower ? sf_.lo[j] : s == kAtUpper ? sf_.up[j] : 0.0;
  }

  // The standard-form point of x and the all-logical basis. False when x is
  // infeasible: a bound, or a row's logical, is off its bounds.
  bool place(const std::vector<double>& x) {
    z_.assign(static_cast<std::size_t>(n_), 0.0);
    std::vector<double> r = sf_.b;
    for (int j = 0; j < sf_.nstruct; ++j) {
      const double v = x[j];
      if (!(v >= sf_.lo[j] - kTol && v <= sf_.up[j] + kTol)) return false;
      z_[j] = std::clamp(v, sf_.lo[j], sf_.up[j]);
      if (std::abs(z_[j] - crash_value(j)) <= kSnapTol) z_[j] = crash_value(j);
      a_.add_column_to(j, -z_[j], r);
    }
    basic_.resize(static_cast<std::size_t>(m_));
    blo_.resize(static_cast<std::size_t>(m_));
    bup_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {  // the logicals are basic, with z_ = 0
      const int j = sf_.nstruct + i;
      const double s = r[i] / a_.value(a_.col_begin(j));
      if (s < sf_.lo[j] - kTol || s > sf_.up[j] + kTol) return false;
      basic_[i] = j;
      set_bounds(i);
    }
    return true;
  }

  void set_bounds(int i) {
    blo_[i] = sf_.lo[basic_[i]];
    bup_[i] = sf_.up[basic_[i]];
  }

  // Fresh LU of the basis, and the basic values from the nonbasic ones.
  bool refactor() {
    if (!factor_.refactor(basic_)) return false;
    std::vector<double> rhs = sf_.b;
    for (int j = 0; j < n_; ++j) {
      if (z_[j] != 0.0) a_.add_column_to(j, -z_[j], rhs);
    }
    factor_.ftran(rhs, xb_);
    return true;
  }

  // The value the basic variable at position i takes if it leaves now: the
  // bound it sits at (zero for a free variable at zero), NaN if none.
  double leave_value(int i) const {
    if (std::abs(xb_[i] - blo_[i]) <= kTol) return blo_[i];
    if (std::abs(xb_[i] - bup_[i]) <= kTol) return bup_[i];
    if (!std::isfinite(blo_[i]) && !std::isfinite(bup_[i]) && std::abs(xb_[i]) <= kTol) return 0.0;
    return std::nan("");
  }

  // Make column j basic, or move it to a bound. False when a
  // factorization fails.
  bool bring_in(int j) {
    const double cv = crash_value(j);
    bool toward = false;  // the improving way is unbounded: head for cv
    for (;;) {
      factor_.ftran_entering(j, d_);

      // A basic at a bound the column can replace without moving the point.
      int swap = -1;
      double best = kPivotTol;
      for (int i = 0; i < m_; ++i) {
        if (std::abs(d_[i]) > best && !std::isnan(leave_value(i))) {
          swap = i;
          best = std::abs(d_[i]);
        }
      }
      if (swap >= 0) return enter(j, swap);

      // Dependent: move along (x_j, x_B - t d), not raising the objective.
      double rc = sf_.cost[j];
      for (int i = 0; i < m_; ++i) rc -= sf_.cost[basic_[i]] * d_[i];
      int dir = z_[j] > cv ? -1 : 1;
      if (!toward && ((rc < -kSnapTol && dir < 0) || (rc > kSnapTol && dir > 0))) dir = -dir;
      const double target = dir > 0 ? (z_[j] < cv ? cv : sf_.up[j]) : (z_[j] > cv ? cv : sf_.lo[j]);
      const double range = std::abs(target - z_[j]);
      const detail::HarrisStep step = detail::harris_ratio_test(
          d_, dir, xb_, blo_, bup_, basic_, range, kTol, /*bland=*/false, cand_);
      if (!std::isfinite(step.t_limit)) {
        toward = true;
        continue;
      }
      if (step.leave < 0 || range <= step.t_step) {
        move(j, dir, range);
        z_[j] = target;  // nonbasic at a bound, or at zero if free
        return true;
      }
      move(j, dir, step.t_step);
      return enter(j, step.leave);
    }
  }

  void move(int j, int dir, double t) {
    for (int i = 0; i < m_; ++i) xb_[i] -= t * dir * d_[i];
    z_[j] += t * dir;
  }

  // Column j takes basis position r; the leaving column stays at the bound
  // it reached. d_ holds j's FTRAN, whose spike the factor kept.
  bool enter(int j, int r) {
    const int out = basic_[r];
    const double at = leave_value(r);
    z_[out] = std::isnan(at) ? (std::abs(xb_[r] - blo_[r]) <= std::abs(xb_[r] - bup_[r])
                                    ? blo_[r]
                                    : bup_[r])
                             : at;
    basic_[r] = j;
    xb_[r] = z_[j];
    z_[j] = 0.0;
    set_bounds(r);
    return factor_.replace(r, d_[r]) || refactor();
  }

  detail::StandardForm sf_;
  int m_, n_;
  SparseMatrix a_;
  BasisFactor factor_;
  std::vector<double> z_;  // each nonbasic column's value; 0 for basic ones (see xb_)
  std::vector<int> basic_;
  std::vector<double> xb_, blo_, bup_;
  std::vector<double> d_;
  std::vector<int> cand_;
};

}  // namespace

Basis crash_from_point(const Model& model, const std::vector<double>& x) {
  if (static_cast<int>(x.size()) != model.num_cols()) return {};
  // The basic list is allocated before the crossover's working set, so
  // freeing that leaves one contiguous hole for the solve that follows.
  Basis basis;
  basis.basic.resize(static_cast<std::size_t>(model.num_rows()));
  if (!Crossover(model).run(x, basis)) return {};
  return basis;
}

}  // namespace tcr::lp
