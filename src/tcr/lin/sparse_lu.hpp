// Sparse LU factorization for revised-simplex basis matrices.
//
// Right-looking Gaussian elimination with (partial) Markowitz pivot selection
// and threshold pivoting for stability. The factorization is stored as a
// sequence of elimination steps: for step t, a pivot (row, column, value),
// the eliminated multipliers (the L column) and the surviving pivot row (the
// U row). Solves with B and B' are then simple forward/backward passes.
//
// Basis columns are taken from a shared CSC constraint matrix, which is how
// the simplex refactorizes without copying the problem data.
#pragma once

#include <vector>

#include "tcr/lin/sparse.hpp"

namespace tcr {

class SparseLU {
 public:
  /// Factor the square matrix whose j-th column is A(:, basis[j]).
  /// Returns false if the matrix is singular to working precision; in that
  /// case `deficient_positions()` lists basis positions that could not be
  /// pivoted (useful for basis repair).
  bool factor(const SparseMatrix& a, const std::vector<int>& basis);

  int m() const { return m_; }
  std::size_t factor_nnz() const;

  /// Solve B x = b. `b` is indexed by constraint row, the result by basis
  /// position (the coefficient of basis column j). `work` is scratch: a
  /// caller that keeps it (and x) across solves allocates nothing per solve.
  void solve(const std::vector<double>& b, std::vector<double>& x,
             std::vector<double>& work) const;
  void solve(const std::vector<double>& b, std::vector<double>& x) const {
    std::vector<double> work;
    solve(b, x, work);
  }

  /// Solve B' y = c. `c` is indexed by basis position, the result by row;
  /// `work` as for solve().
  void solve_transpose(const std::vector<double>& c, std::vector<double>& y,
                       std::vector<double>& work) const;
  void solve_transpose(const std::vector<double>& c, std::vector<double>& y) const {
    std::vector<double> work;
    solve_transpose(c, y, work);
  }

  const std::vector<int>& deficient_positions() const { return deficient_; }

  /// Stability threshold: pivots must satisfy |a| >= tau * max|column|.
  void set_threshold(double tau) { tau_ = tau; }

 private:
  struct Entry {
    int col;  // basis position
    double val;
  };
  struct Step {
    int pivot_row;
    int pivot_col;  // basis position
    double pivot_val;
    std::vector<std::pair<int, double>> l_ops;  // (row, multiplier)
    std::vector<Entry> u_row;                   // pivot row minus the pivot entry
  };

  int m_ = 0;
  double tau_ = 0.01;
  double drop_tol_ = 1e-12;
  std::vector<Step> steps_;
  std::vector<int> deficient_;
};

}  // namespace tcr
