// The revised simplex's two ratio tests and its dual steepest-edge weight
// update, as free functions so tests and micro-benchmarks can run them on
// captured states, plus a test hook that sees the solver's kept per-pivot
// state.
//
// Both ratio tests sweep only what can change the pivot:
//   * harris_ratio_test() reads the basic variables' bounds from
//     per-position arrays (blo[i], bup[i] = bounds of basic[i]), folds the
//     relaxed-bound pass and the search for blockers into one pass over the
//     rows, and runs the pivot choice over the rows that pass kept;
//   * bfrt_select() orders the dual candidates by repeated selection of the
//     minimum, stopping at the entering candidate, instead of sorting them
//     all.
// Each returns exactly what the textbook two-pass Harris test and the fully
// sorted bound-flipping walk return (tests/test_lp_simplex.cpp compares them
// on captured and random states).
#pragma once

#include <vector>

#include "tcr/lin/sparse.hpp"
#include "tcr/lp/standard_form.hpp"

namespace tcr::lp::detail {

/// The primal ratio test's verdict. t_limit is the largest step the bounds
/// relaxed by the feasibility tolerance allow (infinite: nothing blocks, and
/// then leave = -1 and t_step is not set). Otherwise leave is the position
/// of the blocking basic (-1: none, so the entering column's own range
/// binds) and t_step the step to its exact bound.
struct HarrisStep {
  int leave = -1;
  double t_limit = 0.0;
  double t_step = 0.0;
};

/// Two-pass Harris ratio test for the entering column w = B^-1 a_q moving
/// in direction dir (+1 up, -1 down) over `own_range` = up_q - lo_q.
/// Rows with |w_i| <= 1e-9 never block. Among the rows whose exact ratio is
/// within t_limit + 1e-12 it picks the largest |w_i| (the first in row
/// order on ties), or with `bland` the smallest basic column index.
/// `cand` is a work buffer, resized to the row count.
HarrisStep harris_ratio_test(const std::vector<double>& w, int dir,
                             const std::vector<double>& xb, const std::vector<double>& blo,
                             const std::vector<double>& bup, const std::vector<int>& basic,
                             double own_range, double feas_tol, bool bland,
                             std::vector<int>& cand);

/// A dual ratio-test candidate: signed pivot-row coefficient abar, ratio
/// d_j / abar, and its range up_j - lo_j (infinite when not boxed).
struct BfrtCand {
  int col;
  double ratio;
  double abar;
  double range;
};

/// The bound-flipping walk of the dual ratio test. Walking the candidates
/// by ascending (ratio, col), a boxed candidate whose whole range absorbs
/// less than the remaining violation is flipped; the first that covers the
/// rest (within feas_tol), or that is not boxed, enters. Returns the
/// entering candidate's index e, with cands[0, e] reordered into that
/// ascending order (cands[0, e) are the flips), or -1 when none covers the
/// violation.
int bfrt_select(std::vector<BfrtCand>& cands, double remain, double feas_tol);

/// Carries the dual steepest-edge weights w_i = ||B^-T e_i||^2 across the
/// pivot that brings a column with alpha = B^-1 a_q into position r
/// (Forrest & Goldfarb, Math. Prog. 57, 1992). With rho = B^-T e_r and
/// tau = B^-1 rho, row i of the new inverse is rho_i - (alpha_i/alpha_r) rho,
/// so
///   w_i <- w_i - 2 (alpha_i/alpha_r) tau_i + (alpha_i/alpha_r)^2 ||rho||^2
/// and w_r <- ||rho||^2 / alpha_r^2, exact. A weight of 0 is unknown and
/// stays so; one whose update cancels to under 1e-6 of its terms becomes
/// unknown, so that its next use recomputes it.
void dse_update(std::vector<double>& weights, const std::vector<double>& alpha,
                const std::vector<double>& rho, const std::vector<double>& tau, int r);

/// What the simplex keeps per pivot so that pricing and the ratio tests
/// sweep only what can pivot: the row-wise matrix split into priceable and
/// other columns, and each position's bounds; in the dual loop, the dual
/// steepest-edge weights (empty in the primal loop); and in phase 1, the
/// phase-1 cost of each column (empty outside it). A position's bounds are
/// its basic column's, except in phase 1 where that column's cost is +1
/// ([up, inf)) or -1 ((-inf, lo]).
struct PivotState {
  const SparseMatrix& a;
  const std::vector<double>& weights;  // per position, 0 = unknown
  const std::vector<double>& cost1;    // per column
  const std::vector<VarStatus>& stat;
  const std::vector<int>& basic;
  const std::vector<double>& lo;  // column bounds
  const std::vector<double>& up;
  const std::vector<double>& blo;  // bounds of position i
  const std::vector<double>& bup;
  const RowProduct& rows;
};

/// Test hook: when installed, both simplex loops call after_pivot() after
/// every basis change, with the kept state already updated.
class PivotObserver {
 public:
  virtual void after_pivot(const PivotState& state) = 0;

 protected:
  ~PivotObserver() = default;
};

/// The installed observer, or nullptr (the production case).
PivotObserver* pivot_observer() noexcept;
/// Install (or, with nullptr, clear) the process-wide observer.
void install_pivot_observer(PivotObserver* observer) noexcept;

}  // namespace tcr::lp::detail
