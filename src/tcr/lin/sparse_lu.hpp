// Sparse LU factorization for revised-simplex basis matrices, with a
// Forrest–Tomlin update.
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
// search over compacted rows, and the factors are the same bit for bit. The
// rows and column lists are packed into two arrays which, with the scratch,
// are members: a refactorization reuses the previous one's storage.
//
// Dense tail (Suhl & Suhl, ORSA J. Computing 2(4), 1990). Fill makes the
// last part of the active submatrix nearly full, where the lists cost tens
// of cycles per multiply-add. So factor() keeps the count of its nonzeros,
// and at the first step where r = m - t rows remain, r >= 100 and at least
// half of the r x r entries are nonzero, it gathers the block into a dense
// column-major buffer and finishes it with right-looking partial-pivoting
// elimination, taking the columns in ascending position order. Each dense
// step is an ordinary row step: its U row is the entries to its right above
// drop_tol, its L column the nonzero multipliers. A column with nothing
// above drop_tol left is deferred; if any is, factor() fails with exactly
// the deferred positions as deficient_positions(). The `lin.lu.dense_tails`
// obs counter and the `lin.lu.dense_tail_rows` histogram record each switch
// and its r. Factors that never reach the switch are the plain search's bit
// for bit; dense tails round differently.
//
// L and U live in two flat arrays; each step holds its ranges into them.
//
// Forrest–Tomlin update (Forrest & Tomlin, Math. Prog. 2, 1972; Suhl & Suhl,
// Annals of OR 43, 1993). B = L R^-1 U, with R a product of row etas (empty
// after factor()). update(p, spike) replaces basis position p by a column a
// given as its spike R L^-1 a — the vector solve() holds between its L/R
// pass and its U pass, which it hands back on request. In U the replaced
// column becomes the spike, and its step moves to the end of the pivot
// order; the moved row's entries left of the new diagonal are then
// eliminated against the later rows, and the multipliers become one new row
// eta. The factor steps keep their U rows in place; a moved step is appended
// as a new step whose U entries are held column-wise (the spike), and the
// old step is retired. Entries the update removes from U — the replaced
// column, the moved row — are zeroed in place. In exact arithmetic the new
// diagonal equals the old one times the pivot (B^-1 a)_p, since that pivot
// is det(B_new) / det(B); callers compare the two to catch drift.
//
// Basis columns are taken from a shared CSC constraint matrix, which is how
// the simplex refactorizes without copying the problem data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// Stored nonzeros: pivots, L, U (spikes included) and row etas. Grows
  /// with every update().
  std::size_t factor_nnz() const { return steps_.size() + l_.size() + u_.size() + r_.size(); }
  /// The part of factor_nnz() that update() added since factor().
  std::size_t update_nnz() const { return factor_nnz() - fresh_nnz_; }
  /// The fill guard: true once the updates have added more nonzeros than
  /// the fresh factors held, when refactorizing is due.
  bool fill_exceeded() const { return update_nnz() > fresh_nnz_; }
  /// Updates since factor().
  int updates() const { return static_cast<int>(etas_.size()); }

  /// Solve B x = b. `b` is indexed by constraint row, the result by basis
  /// position (the coefficient of basis column j). `work` is scratch: a
  /// caller that keeps it (and x) across solves allocates nothing per solve.
  /// With `spike`, it also receives R L^-1 b (row space), the argument
  /// update() takes when b is the entering column.
  void solve(const std::vector<double>& b, std::vector<double>& x, std::vector<double>& work,
             std::vector<double>* spike = nullptr) const;
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

  /// Replace basis position `position` by the column whose spike (see
  /// solve()) is `spike`. Returns false, leaving the factors unchanged, when
  /// the new diagonal is zero to working precision: the new basis would be
  /// singular.
  bool update(int position, const std::vector<double>& spike);

  /// U's diagonal entry for basis position `position`.
  double diagonal(int position) const { return steps_[step_of_col_[position]].pivot_val; }
  /// Multiply that diagonal entry by `factor` (fault injection: simulates a
  /// drifted update).
  void scale_diagonal(int position, double factor) {
    steps_[step_of_col_[position]].pivot_val *= factor;
  }

  const std::vector<int>& deficient_positions() const { return deficient_; }
  /// After a failed factor(), the rows no pivot covered, as many as there
  /// are deficient positions: a unit column of each in place of the
  /// deficient positions makes the basis nonsingular.
  const std::vector<int>& deficient_rows() const { return deficient_rows_; }

  /// Stability threshold: pivots must satisfy |a| >= tau * max|column|.
  void set_threshold(double tau) { tau_ = tau; }

 private:
  struct Entry {
    int idx;  // a U row's column (basis position), or a spike's row
    double val;
  };
  enum class Kind : std::uint8_t {
    kRow,      // a factor step: U row held row-wise in u_[u_begin, u_end)
    kSpike,    // an update step: U column held column-wise in u_[u_begin, u_end)
    kRetired,  // moved to the end by an update; its L column still applies
  };
  struct Step {
    int pivot_row;
    int pivot_col;  // basis position
    double pivot_val;
    std::size_t l_begin, l_end;  // L column: l_[l_begin, l_end)
    std::size_t u_begin, u_end;  // U row or column minus the pivot
    Kind kind;
  };
  // Row eta: v[row] -= sum of mult * v[i] over r_[begin, end) = (i, mult).
  struct RowEta {
    int row;
    std::size_t begin, end;
  };
  // A spike entry on its row's list: u_[k] in step `step`'s column.
  struct SpikeLink {
    int step;
    int next;
    std::size_t k;
  };
  struct Workspace;  // factor()'s active submatrix and scratch (sparse_lu.cpp)
  struct WorkspaceDeleter {
    void operator()(Workspace* w) const;
  };

  // Finish factor() on the live rows and columns of the workspace as one
  // dense block; false if it is singular (deficient_ holds the deferred
  // positions).
  bool factor_dense_tail();

  int m_ = 0;
  double tau_ = 0.01;
  double drop_tol_ = 1e-12;
  std::vector<Step> steps_;  // factor steps in pivot order, then update steps
  std::size_t factored_ = 0;  // steps_[0, factored_) are factor steps
  std::vector<std::pair<int, double>> l_;  // (row, multiplier)
  std::vector<Entry> u_;
  std::vector<int> deficient_, deficient_rows_;
  std::size_t fresh_nnz_ = 0;  // factor_nnz() right after factor()

  // Update state.
  std::vector<int> step_of_col_;  // live step of each basis position
  // Factor-step U entries by column: u_ indices ucol_[ucol_ptr_[j], ucol_ptr_[j+1]).
  std::vector<std::size_t> ucol_ptr_, ucol_;
  std::vector<RowEta> etas_;
  std::vector<std::pair<int, double>> r_;  // row-eta entries (row, multiplier)
  std::vector<SpikeLink> links_;
  std::vector<int> link_head_;  // per row: first SpikeLink, -1 if none
  std::vector<double> upd_col_, upd_row_;  // update() scratch, all zero between calls

  std::unique_ptr<Workspace, WorkspaceDeleter> ws_;
};

}  // namespace tcr
