// The revised simplex's basis factor and its one refactorization policy.
//
// BasisFactor keeps a sparse LU of the basis B = A(:, basic) (see
// lin/sparse_lu.hpp), solves with it, and at each pivot either changes it by
// a Forrest–Tomlin update or asks for a rebuild. replace() asks for one, in
// this order, when
//   * the pivot is tiny, |alpha| < 1e-7 (checked before any update);
//   * the update would leave U singular;
//   * the new U diagonal is not alpha times the old one to 1e-9 relative
//     (det B_new = alpha det B, so a gap is accumulated rounding);
//   * the updates' fill exceeds the fresh factor's nonzeros;
//   * `refactor_every` updates have been made since the last factorization.
// Both simplex loops end each pivot with replace() and trust an
// Optimal/Unbounded verdict only when fresh().
//
// The fault hooks of the factor and update boundaries (fail_refactors,
// stall_refactors, eta_drift; see fault/fault.hpp) fire here, and each
// factorization records the lp.simplex.{eta_length,update_fill_nnz,
// lu_fill_nnz} histograms.
#pragma once

#include <vector>

#include "tcr/lin/sparse.hpp"
#include "tcr/lin/sparse_lu.hpp"

namespace tcr::lp {

class BasisFactor {
 public:
  /// Factors columns of `a`, which must outlive this object.
  BasisFactor(const SparseMatrix& a, int refactor_every);

  /// Factor B = A(:, basic) afresh. False when B is singular to working
  /// precision (deficient_positions() then lists the positions that could
  /// not be pivoted, deficient_rows() the rows left without a pivot) or an
  /// injected fault fails the factorization.
  bool refactor(const std::vector<int>& basic);

  /// w = B^-1 v; v is in row space, w in basis-position space.
  void ftran(const std::vector<double>& v, std::vector<double>& w) { lu_.solve(v, w, work_); }
  /// w = B^-1 a_q for the entering column q, keeping its spike for replace().
  void ftran_entering(int q, std::vector<double>& w);
  /// y = B^-T c; c in basis-position space, y in row space.
  void btran(const std::vector<double>& c, std::vector<double>& y) {
    lu_.solve_transpose(c, y, work_);
  }

  /// Put the column last passed to ftran_entering() at position r, whose
  /// pivot is alpha = w[r]. False when the factors must be rebuilt instead
  /// (see the list above); a tiny pivot leaves them untouched.
  bool replace(int r, double alpha);

  /// No updates since the last factorization.
  bool fresh() const { return lu_.updates() == 0; }
  int updates() const { return lu_.updates(); }
  const std::vector<int>& deficient_positions() const { return lu_.deficient_positions(); }
  const std::vector<int>& deficient_rows() const { return lu_.deficient_rows(); }

 private:
  const SparseMatrix& a_;
  int refactor_every_;
  SparseLU lu_;
  // Scratch sized once, so solves allocate nothing per pivot.
  std::vector<double> work_, col_, spike_;
};

}  // namespace tcr::lp
