#include "tcr/lp/pivot_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace tcr::lp::detail {

namespace {

// bfrt_select() selects this many candidates one by one; a walk that flips
// more sorts the rest once, so its cost stays O(n log n).
constexpr int kSelectFirst = 32;

// dse_update() makes a weight unknown when its update cancels to under this
// share of its terms: the rounding left in it could exceed 1e-9 of it.
constexpr double kDseCancel = 1e-6;

std::atomic<PivotObserver*> g_pivot_observer{nullptr};

}  // namespace

HarrisStep harris_ratio_test(const std::vector<double>& w, int dir,
                             const std::vector<double>& xb, const std::vector<double>& blo,
                             const std::vector<double>& bup, const std::vector<int>& basic,
                             double own_range, double feas_tol, bool bland,
                             std::vector<int>& cand) {
  const int m = static_cast<int>(w.size());
  const double range = std::isfinite(own_range) ? own_range : kInf;
  cand.resize(static_cast<std::size_t>(m));

  // Pass 1: the largest step the bounds relaxed by feas_tol allow. A basic
  // moving down (delta > 0) meets its lower bound, one moving up its upper;
  // x - (bound -+ tol) over delta is (bound +- tol - x) over -delta bit for
  // bit, and an infinite bound gives +inf. The limit only falls, so the rows
  // whose exact ratio is within the running limit + 1e-12 include every row
  // pass 2 can pick.
  double limit = range;
  int kept = 0;
  for (int i = 0; i < m; ++i) {
    const double delta = dir * w[i];
    if (std::abs(delta) <= 1e-9) continue;
    const bool down = delta > 0;
    const double bound = down ? blo[i] : bup[i];
    const double relaxed = down ? bound - feas_tol : bound + feas_tol;
    limit = std::min(limit, std::max((xb[i] - relaxed) / delta, 0.0));
    cand[kept] = i;
    kept += (xb[i] - bound) / delta <= limit + 1e-12;
  }
  HarrisStep step;
  step.t_limit = limit;
  if (!std::isfinite(limit)) return step;

  // Pass 2: among the blockers within the limit, the largest pivot.
  step.t_step = range;
  double best_pivot = 0.0;
  for (int c = 0; c < kept; ++c) {
    const int i = cand[c];
    const double delta = dir * w[i];
    double t;
    if (delta > 0) {
      if (!std::isfinite(blo[i])) continue;
      t = (xb[i] - blo[i]) / delta;
    } else {
      if (!std::isfinite(bup[i])) continue;
      t = (bup[i] - xb[i]) / (-delta);
    }
    t = std::max(t, 0.0);
    if (t <= limit + 1e-12) {
      const double piv = std::abs(w[i]);
      if (bland) {
        // Bland: smallest column index among eligible blockers.
        if (step.leave < 0 || basic[i] < basic[step.leave]) {
          step.leave = i;
          step.t_step = t;
        }
      } else if (piv > best_pivot) {
        best_pivot = piv;
        step.leave = i;
        step.t_step = t;
      }
    }
  }
  return step;
}

int bfrt_select(std::vector<BfrtCand>& cands, double remain, double feas_tol) {
  // Ascending ratio; the column breaks ties (deterministic, and Bland-style).
  const auto before = [](const BfrtCand& x, const BfrtCand& z) {
    if (x.ratio != z.ratio) return x.ratio < z.ratio;
    return x.col < z.col;
  };
  const int n = static_cast<int>(cands.size());
  double absorb = 0.0;  // violation absorbed by flips so far
  for (int c = 0; c < n; ++c) {
    if (c < kSelectFirst) {
      int least = c;
      for (int k = c + 1; k < n; ++k)
        if (before(cands[k], cands[least])) least = k;
      std::swap(cands[c], cands[least]);
    } else if (c == kSelectFirst) {
      std::sort(cands.begin() + c, cands.end(), before);
    }
    const BfrtCand& cd = cands[c];
    if (!std::isfinite(cd.range) || remain - absorb - std::abs(cd.abar) * cd.range <= feas_tol)
      return c;
    absorb += std::abs(cd.abar) * cd.range;
  }
  return -1;
}

void dse_update(std::vector<double>& weights, const std::vector<double>& alpha,
                const std::vector<double>& rho, const std::vector<double>& tau, int r) {
  const int m = static_cast<int>(weights.size());
  double rho_norm2 = 0.0;
  for (const double v : rho) rho_norm2 += v * v;
  const double piv = alpha[r];
  for (int i = 0; i < m; ++i) {
    if (i == r || alpha[i] == 0.0 || weights[i] == 0.0) continue;
    const double ratio = alpha[i] / piv;
    const double terms = weights[i] + ratio * ratio * rho_norm2;
    const double w = terms - 2.0 * ratio * tau[i];
    weights[i] = w > kDseCancel * terms ? w : 0.0;
  }
  weights[r] = rho_norm2 / (piv * piv);
}

PivotObserver* pivot_observer() noexcept {
  return g_pivot_observer.load(std::memory_order_acquire);
}

void install_pivot_observer(PivotObserver* observer) noexcept {
  g_pivot_observer.store(observer, std::memory_order_release);
}

}  // namespace tcr::lp::detail
