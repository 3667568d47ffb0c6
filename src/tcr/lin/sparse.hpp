// Compressed sparse column (CSC) matrix with a triplet-based builder.
//
// This is the storage format consumed by the revised simplex: constraint
// matrices are built once (duplicate triplets are summed) and then accessed
// column-by-column during pricing / FTRAN.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tcr {

struct Triplet {
  int row;
  int col;
  double value;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from triplets; duplicate (row, col) entries are summed, and
  /// entries with magnitude below `drop_tol` after summing are dropped.
  SparseMatrix(int rows, int cols, const std::vector<Triplet>& triplets,
               double drop_tol = 0.0);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Column j occupies [col_begin(j), col_end(j)) in row_index()/values().
  std::size_t col_begin(int j) const { return col_ptr_[j]; }
  std::size_t col_end(int j) const { return col_ptr_[j + 1]; }
  int row_index(std::size_t k) const { return row_idx_[k]; }
  double value(std::size_t k) const { return values_[k]; }

  /// y += alpha * A(:, j)
  void add_column_to(int j, double alpha, std::vector<double>& y) const;

  /// Dot product of column j with a dense vector.
  double column_dot(int j, const std::vector<double>& x) const;

  /// y = A x (dense result).
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// y = A' x (dense result).
  std::vector<double> multiply_transpose(const std::vector<double>& x) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::size_t> col_ptr_;
  std::vector<int> row_idx_;
  std::vector<double> values_;
};

/// rho' A computed row by row, over the columns that can enter the basis.
///
/// The matrix is kept row-wise (one copy, built once per solve), and each
/// row's entries are split in two parts: the priceable columns first, then
/// the rest. The simplex calls a column priceable when it is nonbasic and not
/// fixed; on the routing LPs about half the entries a pivot row meets lie in
/// basic or fixed columns, and it never needs them. partition() splits every
/// row afresh (the simplex calls it at each loop's entry, since the basis
/// may be replaced between loops); exclude() and include() move
/// one column across the split in each of its rows, a short scan per row, as
/// the column enters or leaves the basis. The order inside a part is
/// arbitrary.
///
/// for_each() sweeps only the priceable parts of the rows where rho is
/// nonzero. Every product is summed in ascending row order from 0.0 —
/// column_dot's order, less its zero terms — so it equals
/// A.column_dot(j, rho) bit for bit.
class RowProduct {
 public:
  RowProduct() = default;
  /// Row-wise copy of `a` with every column priceable.
  explicit RowProduct(const SparseMatrix& a);

  int rows() const { return static_cast<int>(split_.size()); }
  /// Row i's entries are [row_begin(i), row_end(i)) in col()/value(); the
  /// priceable part is [row_begin(i), split(i)).
  std::size_t row_begin(int i) const { return ptr_[i]; }
  std::size_t split(int i) const { return split_[i]; }
  std::size_t row_end(int i) const { return ptr_[i + 1]; }
  int col(std::size_t k) const { return col_[k]; }
  double value(std::size_t k) const { return val_[k]; }

  /// Split every row afresh: the columns j with priceable(j) first.
  template <typename Pred>
  void partition(Pred&& priceable) {
    for (int i = 0; i < rows(); ++i) {
      std::size_t lo = ptr_[i], hi = ptr_[i + 1];
      for (;;) {
        while (lo < hi && priceable(col_[lo])) ++lo;
        while (lo < hi && !priceable(col_[hi - 1])) --hi;
        if (lo >= hi) break;
        swap_entries(lo++, --hi);
      }
      split_[i] = lo;
    }
  }

  /// Column j of `a` (the matrix this copy was built from) leaves the
  /// priceable part of each of its rows; it must be in it.
  void exclude(const SparseMatrix& a, int j);
  /// Column j of `a` joins the priceable part of each of its rows; it must
  /// be out of it.
  void include(const SparseMatrix& a, int j);

  /// Calls visit(j, alpha_j) for every priceable column j that holds an
  /// entry in a row with rho_i != 0, in ascending j; alpha_j can still be 0
  /// by cancellation.
  template <typename Visit>
  void for_each(const std::vector<double>& rho, Visit&& visit) {
    for (int i = 0; i < rows(); ++i) {
      const double ri = rho[i];
      if (ri == 0.0) continue;
      for (std::size_t k = ptr_[i]; k < split_[i]; ++k) {
        const int j = col_[k];
        acc_[j] += val_[k] * ri;
        touched_[j >> 6] |= std::uint64_t{1} << (j & 63);
      }
    }
    for (std::size_t w = 0; w < touched_.size(); ++w) {
      for (std::uint64_t bits = touched_[w]; bits != 0; bits &= bits - 1) {
        const int j = static_cast<int>(w * 64) + std::countr_zero(bits);
        const double alpha = acc_[j];
        acc_[j] = 0.0;
        visit(j, alpha);
      }
      touched_[w] = 0;
    }
  }

 private:
  void swap_entries(std::size_t x, std::size_t y) {
    std::swap(col_[x], col_[y]);
    std::swap(val_[x], val_[y]);
  }

  std::vector<std::size_t> ptr_;        // row i is [ptr_[i], ptr_[i + 1])
  std::vector<std::size_t> split_;      // end of row i's priceable part
  std::vector<int> col_;                // column of each entry
  std::vector<double> val_;             // value of each entry
  std::vector<double> acc_;             // per column, all zero between calls
  std::vector<std::uint64_t> touched_;  // bitset of the columns acc_ holds
};

}  // namespace tcr
