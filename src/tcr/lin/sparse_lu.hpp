// Sparse LU factorization for revised-simplex basis matrices.
//
// Right-looking Gaussian elimination with (partial) Markowitz pivot selection
// and threshold pivoting for stability. The factorization is stored as a
// sequence of elimination steps: for step t, a pivot (row, column, value),
// the eliminated multipliers (the L column) and the surviving pivot row (the
// U row). Solves with B and B' are then simple forward/backward passes.
//
// The active submatrix is held row-wise, each row's entries in the order they
// arose, with a list per column of the rows that hold it. The two are linked
// both ways: a row entry knows its slot in its column's list, and a slot
// knows the entry's index in its row, so gathering a column reads every value
// in O(1) instead of searching the row (the design LPs' bases have rows with
// hundreds of live entries). Elimination updates a row in place: the pivot
// column's entry and entries that cancel become holes, fill-in is appended,
// and once a quarter of the row is holes it is compacted in order,
// re-pointing only the slots of entries that moved. An entry that cancels
// exactly leaves its slot in place, marked cancelled, until the column is
// next gathered; fill-in that recreates the entry in the meantime reuses the
// slot (counted by the `lin.lu.slot_reuses` obs counter). So the order of
// every column's entries, the bucket order, every Markowitz tie-break and
// pivot, and the order of every L column and U row are those of a plain
// search over compacted rows, and the factors are the same bit for bit.
//
// L and U live in two flat arrays; each step holds its ranges into them.
//
// Basis columns are taken from a shared CSC constraint matrix, which is how
// the simplex refactorizes without copying the problem data.
#pragma once

#include <cstddef>
#include <utility>
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
  std::size_t factor_nnz() const { return steps_.size() + l_.size() + u_.size(); }

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
    std::size_t l_begin, l_end;  // L column: l_[l_begin, l_end)
    std::size_t u_begin, u_end;  // U row minus the pivot: u_[u_begin, u_end)
  };

  int m_ = 0;
  double tau_ = 0.01;
  double drop_tol_ = 1e-12;
  std::vector<Step> steps_;
  std::vector<std::pair<int, double>> l_;  // (row, multiplier)
  std::vector<Entry> u_;
  std::vector<int> deficient_;
};

}  // namespace tcr
