// Dense bounded-variable two-phase simplex with Bland's rule, from the
// all-logical basis of the shared standard form (lp/standard_form.hpp).
//
// Deliberately simple reference implementation (explicit basis inverse,
// anti-cycling by Bland's rule throughout). It is slow but hard to get
// wrong, and serves as the oracle against which the sparse revised simplex
// is property-tested. Use tcr::lp::solve() for real problems.
#pragma once

#include "tcr/lp/model.hpp"

namespace tcr::lp {

struct DenseSimplexOptions {
  double tol = 1e-9;
  long max_iterations = 200000;
};

/// The oracle always cold-starts, so its pivot path stays independent of
/// the production solver it is checking. The final basis is still exported
/// on Solution::basis, so a dense solve can seed later sparse solves.
Solution solve_dense(const Model& model, const DenseSimplexOptions& options = {});

}  // namespace tcr::lp
