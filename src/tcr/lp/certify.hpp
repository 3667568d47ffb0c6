// Independent certification of LP solutions.
//
// certify() re-derives every KKT condition of a claimed optimum from the
// Model and the returned (x, y, reduced) values alone — it never looks at the
// solver's basis or factorization, so a passing Certificate is an
// end-to-end proof that the reported optimum is genuine:
//
//   * primal feasibility: row activities vs the rhs, variable bounds;
//   * objective consistency: the reported objective equals c'x;
//   * dual consistency: the reported reduced costs equal c - A'y;
//   * dual feasibility: sign conditions on reduced costs given each
//     variable's position against its bounds, and on LE/GE row duals;
//   * complementary slackness: row duals vanish on slack rows, reduced
//     costs vanish off the binding bound;
//   * duality gap: c'x equals the dual objective b'y + bound terms.
//
// All residuals are relative (scaled by the magnitude of the participating
// data), so tolerances are meaningful for badly scaled models too. The cost
// is one pass over the nonzeros — O(nnz + n + m) — cheap enough that
// lp::solve() certifies every optimal solve by default (see SimplexOptions).
#pragma once

#include "tcr/lp/model.hpp"

namespace tcr::lp {

/// Certification tolerances. The defaults are 10x the solver's default
/// feas_tol/opt_tol (1e-7): the simplex enforces its conditions basis-wise,
/// and the independent re-derivation adds roundoff of its own, so the
/// certificate must allow the solver slack it legitimately used. See
/// DESIGN.md ("Certified solves").
struct CertifyOptions {
  double feas_tol = 1e-6;      // primal rows and bounds
  double opt_tol = 1e-6;       // dual sign conditions (columns and rows)
  double res_tol = 1e-6;       // objective / reduced-cost consistency
  double comp_tol = 1e-5;      // complementary-slackness products
  double gap_tol = 1e-6;       // relative duality gap

  /// Tolerances derived from a solver's, keeping the 10x headroom ratio.
  static CertifyOptions from_solver_tols(double feas_tol, double opt_tol, double factor = 10.0);
};

/// Check a claimed optimal solution against `model`. Solutions whose status
/// is not Optimal (nothing to certify) and solutions with missing or
/// non-finite values fail with an explanatory reason.
Certificate certify(const Model& model, const Solution& sol, const CertifyOptions& opts = {});

/// The less trustworthy of two certificates: an unchecked or failing one
/// wins over a passing one; among equals, the larger worst() residual.
/// Used when a result aggregates several solves (lexicographic designs,
/// tradeoff sweeps) and must report a single proof.
const Certificate& worse_certificate(const Certificate& a, const Certificate& b);

}  // namespace tcr::lp
