// Conversion of a Model to computational standard form, shared by the dense
// (oracle) and sparse (production) simplex implementations:
//
//   minimize c'x  s.t.  A x = b,  lo <= x <= up
//
// Columns are [structural | logical], with exactly one logical column per
// row, in row order: column nstruct + i is row i's. An LE row's logical is
// its slack (+1) and a GE row's its surplus (-1), both on [0, inf); an EQ
// row's is fixed at [0, 0], with the sign that makes it nonnegative at the
// start point. Both solvers start from the all-logical basis, with every
// structural at its start status (the bound nearest zero, free columns at
// zero); when that point violates a row, the row's logical starts out of
// bounds and phase 1 runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "tcr/lp/model.hpp"

namespace tcr::lp::detail {

enum VarStatus : std::uint8_t { kBasic = 0, kAtLower = 1, kAtUpper = 2, kFree = 3 };

/// The nonbasic status a column starts at: the bound nearest zero, or free
/// at zero when both bounds are infinite.
inline VarStatus start_status(double lo, double up) {
  if (std::isfinite(lo) && std::isfinite(up))
    return std::abs(lo) <= std::abs(up) ? kAtLower : kAtUpper;
  if (std::isfinite(lo)) return kAtLower;
  if (std::isfinite(up)) return kAtUpper;
  return kFree;
}

struct StandardForm {
  int m = 0;        // rows
  int nstruct = 0;  // structural columns
  int ntotal = 0;   // structural + logical (nstruct + m)
  std::vector<Triplet> triplets;
  std::vector<double> lo, up;
  std::vector<double> cost;    // phase-2 costs (negated when maximizing)
  std::vector<double> b;
  bool maximize = false;
  bool need_phase1 = false;    // the all-logical start basis is infeasible
};

inline StandardForm build_standard_form(const Model& model) {
  StandardForm sf;
  sf.m = model.num_rows();
  sf.nstruct = model.num_cols();
  sf.ntotal = sf.nstruct + sf.m;
  sf.maximize = model.sense() == Sense::Maximize;

  const double sign = sf.maximize ? -1.0 : 1.0;
  for (int j = 0; j < sf.nstruct; ++j) {
    sf.lo.push_back(model.lower(j));
    sf.up.push_back(model.upper(j));
    sf.cost.push_back(sign * model.cost(j));
  }
  sf.triplets = model.triplets();
  sf.b.resize(static_cast<std::size_t>(sf.m));
  for (int i = 0; i < sf.m; ++i) sf.b[i] = model.rhs(i);

  // Row residual at the start point.
  std::vector<double> x0(static_cast<std::size_t>(sf.nstruct), 0.0);
  for (int j = 0; j < sf.nstruct; ++j) {
    const VarStatus s = start_status(sf.lo[j], sf.up[j]);
    if (s != kFree) x0[j] = s == kAtLower ? sf.lo[j] : sf.up[j];
  }
  std::vector<double> r = sf.b;
  for (const auto& t : sf.triplets) r[t.row] -= t.value * x0[t.col];

  for (int i = 0; i < sf.m; ++i) {
    const RowType type = model.row_type(i);
    const double coeff = type == RowType::LE   ? 1.0
                         : type == RowType::GE ? -1.0
                         : r[i] >= 0.0         ? 1.0
                                               : -1.0;
    sf.lo.push_back(0.0);
    sf.up.push_back(type == RowType::EQ ? 0.0 : kInf);
    sf.cost.push_back(0.0);
    sf.triplets.push_back({i, sf.nstruct + i, coeff});
    if (r[i] * coeff < 0.0 || (type == RowType::EQ && r[i] != 0.0)) sf.need_phase1 = true;
  }
  return sf;
}

}  // namespace tcr::lp::detail
