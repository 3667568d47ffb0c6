// Sparse revised simplex — the production LP solver of the library.
//
// Two-phase bounded-variable primal simplex over a standard form with one
// logical column per row (lp/standard_form.hpp):
//   * phase 1 runs from whatever basis the solve holds and minimizes the sum
//     of the basic variables' bound violations (Wolfe's composite rule,
//     Maros, Computational Techniques of the Simplex Method, 2003, ch. 9):
//     a basic above its upper bound costs +1 and may fall only to that
//     bound, one below its lower bound costs -1 and may rise only to it;
//   * basis kept as a sparse Markowitz LU, changed at each pivot by a
//     Forrest–Tomlin update; one refactorization policy, owned by
//     lp::BasisFactor (lp/basis_factor.hpp), decides when to rebuild it;
//   * the pivot row alpha = rho' A_N computed row-wise over rho's nonzeros
//     from a CSR copy of A built once per solve, each of whose rows keeps
//     its priceable (nonbasic, non-fixed) columns first, so only those are
//     swept; bit-identical to the column pass;
//   * reduced costs kept as solver state: recomputed (one BTRAN of c_B and
//     one pass over the matrix) on the first iteration after each
//     refactorization, and carried across every other pivot by the textbook
//     update along the pivot row rho = B^-T e_r, which each iteration
//     computes anyway; Optimal and Unbounded verdicts are only issued on a
//     fresh factorization, so always on fresh prices;
//   * DEVEX pricing over the carried reduced costs, scanning a kept list
//     of the attractive columns, with a Bland's-rule fallback after
//     `bland_after` consecutive degenerate pivots (anti-cycling);
//   * two-pass Harris-style ratio test with a feasibility tolerance, over
//     per-position copies of the basic columns' bounds, whose second pass
//     visits only the rows the first found near the limit
//     (lp/pivot_kernels.hpp);
//   * a deterministic 1e-9 objective perturbation for the heavily degenerate
//     multicommodity-flow models, removed by a final clean re-optimization.
//
// A start basis that comes back dual-feasible but primal-infeasible — the
// parametric-sweep case, where an rhs edit moved the basic values but left
// every reduced cost intact — is re-optimized by a dual simplex phase
// (bound-flipping ratio test whose candidates are ordered by selection only
// as far as the walk reads them) that shares the basis factor, its pivot
// epilogue and the carried reduced costs with the primal loop. Its leaving
// row is chosen by dual steepest edge, the largest violation^2 / w_i with
// w_i = ||B^-T e_i||^2, and the weights live with the basis:
//   * exact on first use: a row's weight is one BTRAN of e_i, the first
//     time the row is violated;
//   * updated: each pivot carries the known weights by the Forrest–Goldfarb
//     update (one extra FTRAN, tau = B^-1 rho_r; lp/pivot_kernels.hpp), and
//     the pivot row's becomes ||rho_r||^2 / alpha_r^2;
//   * carried: Solution::basis exports them when it is the basis the dual
//     phase ended on, and a warm basis accepted unchanged brings them back,
//     so a sweep's chain pays the exact start cost once;
//   * journaled: sweep checkpoints store them with the basis (version 2);
//   * dropped: a patched warm basis, or weights of the wrong size or with an
//     entry that is not a finite, non-negative number, starts from unknown
//     weights instead.
//
// A solve starts from the caller's basis when it has one — the previous
// sweep point's, or the vertex lp::crash_from_point() (lp/crossover.hpp)
// reaches from a known feasible point, which skips phase 1 — and from the
// all-logical basis otherwise. No path returns to the all-logical basis
// once another has been adopted: when the dual phase gives up, phase 1
// starts from the basis it ended on.
//
// Numerical breakdowns and failed certificates go through a three-stage
// recovery ladder (reseed, careful, dense); see solve().
//
// The paper solved its routing-design LPs with CPLEX; this solver is the
// from-scratch replacement (see DESIGN.md, substitutions).
#pragma once

#include <cstdint>

#include "tcr/lp/model.hpp"

namespace tcr::guard {
class CancelToken;
}

namespace tcr::lp {

struct SimplexOptions {
  double feas_tol = 1e-7;   // bound/row feasibility tolerance
  double opt_tol = 1e-7;    // reduced-cost (dual feasibility) tolerance
  long max_iterations = 0;  // 0 -> 200 * (m + n) + 10000
  int refactor_every = 50;
  bool perturb = true;          // anti-degeneracy cost perturbation
  std::uint64_t seed = 0x5eedULL;
  int bland_after = 3000;  // consecutive degenerate pivots before Bland mode

  /// Run lp::certify() on every Optimal solve (at 10x the solver
  /// tolerances) and store the result in Solution::certificate. A failing
  /// certificate is treated like a numerical breakdown: the recovery ladder
  /// runs.
  bool certify = true;

  /// Optional cooperative cancellation/budget token (not owned; must
  /// outlive the solve). The solver polls it every 16 iterations and at
  /// solve entry, charging iterations against the token's cumulative
  /// budget; when it fires, the solve stops with Status::Cancelled, a
  /// best-so-far basis, and the token's diagnosis in the note. A cancelled
  /// attempt is final — the recovery ladder does not retry it.
  guard::CancelToken* cancel = nullptr;
};

/// Solve with the sparse revised simplex. On numerical breakdown — or, when
/// options.certify is set, on an optimal solution whose independent
/// certificate fails — a recovery ladder re-solves with progressively more
/// conservative settings: reseed (new perturbation seed, perturbation
/// flipped), careful (tight refactorization, Bland pricing) and dense (the
/// independent dense tableau simplex, for rows + cols <= 600). The returned
/// Solution carries the certificate of the accepted attempt; if every stage
/// fails the most defensible attempt is returned with a note recording the
/// ladder.
///
/// `start` optionally supplies the basis to start from: typically the
/// previous Solution::basis of a near-identical model in a sweep, or the
/// one lp::crash_from_point() builds from a feasible point. The basis is
/// validated against the model's standard form: a dimension-mismatched or
/// inconsistent basis is rejected (cold start from the all-logical basis),
/// and a singular one is repaired by putting the logical columns of the rows
/// the factorization left without a pivot at the unpivotable positions
/// (rejected when that fails). The factorized basis is then classified
/// once: one whose point is primal-feasible skips phase 1 entirely; a
/// primal-infeasible one that is still dual-feasible is re-optimized by the
/// dual simplex phase; any other runs phase 1 from itself. When the dual
/// phase gives up, its last basis goes through the same singular-position
/// repair and phase 1 runs from it. Every adoption attempt increments
/// exactly one of the lp.warmstart.{accepted,repaired,rejected} obs
/// counters when it is decided (lp.warmstart.attempts counts them all), and
/// Solution::warm_start reads the same verdict. The reseed and careful
/// recovery stages restart from the failed attempt's exported basis rather
/// than from scratch.
Solution solve(const Model& model, const SimplexOptions& options = {},
               const Basis* start = nullptr);

}  // namespace tcr::lp
