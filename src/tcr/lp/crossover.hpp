// A crash basis from a feasible point: a crossover to a nearby vertex.
//
// A cold solve that starts from a basis whose point is primal-feasible skips
// phase 1. When a caller knows a feasible point x of the model — not
// necessarily a vertex — crash_from_point() finds such a basis and returns it
// as an lp::Basis, which lp::solve() takes as its start basis.
//
// Every structural column away from its start value (the bound nearest
// zero; zero for a free column; see standard_form.hpp) must end up basic or
// at a bound. The routine starts from the all-logical basis, where each
// row's logical holds the row's slack at x, and brings those columns in one
// at a time:
//   * if some basic variable sitting at a bound (a tight row's slack, an EQ
//     row's logical, a column at a bound) has a usable pivot in the column's
//     direction B^-1 a_j, the column takes its place and the point does not
//     move;
//   * otherwise the column depends on the basic columns, and the point moves
//     along the null direction (x_j, x_B - t B^-1 a_j) by a Harris ratio
//     test until the column reaches a bound (it stays nonbasic) or a basic
//     variable does (it leaves, the column enters). The direction is the one
//     that does not raise the objective, or toward the crash value when the
//     reduced cost is zero (Bixby & Saltzman, "Recovering an optimal LP
//     basis from an interior point solution", OR Letters 15, 1994).
// The basis is kept in an lp::BasisFactor (lp/basis_factor.hpp), under the
// refactorization policy both simplex loops use, so memory is O(nnz) and
// each column costs one FTRAN and two passes over the rows.
#pragma once

#include <vector>

#include "tcr/lp/model.hpp"

namespace tcr::lp {

/// The basis, in lp::solve()'s standard form, of a vertex reached from the
/// feasible point `x` (structural values, size model.num_cols()). Empty when
/// x has the wrong size or violates a row or bound by more than 1e-9, or
/// when a factorization fails; an empty basis makes lp::solve() start from
/// the all-logical basis.
Basis crash_from_point(const Model& model, const std::vector<double>& x);

}  // namespace tcr::lp
