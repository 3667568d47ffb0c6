// Compressed sparse column (CSC) matrix with a triplet-based builder.
//
// This is the storage format consumed by the revised simplex: constraint
// matrices are built once (duplicate triplets are summed) and then accessed
// column-by-column during pricing / FTRAN.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
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

  /// A', whose columns are A's rows (each with its entries in column order).
  SparseMatrix transpose() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::size_t> col_ptr_;
  std::vector<int> row_idx_;
  std::vector<double> values_;
};

/// rho' A computed row by row: a row-wise copy of A (its transpose) visits
/// only the rows where rho is nonzero, which pays when rho is sparse. Every
/// product is summed in ascending row order from 0.0 — column_dot's order,
/// less its zero terms — so it equals A.column_dot(j, rho) bit for bit.
class RowProduct {
 public:
  RowProduct() = default;
  explicit RowProduct(const SparseMatrix& a)
      : at_(a.transpose()),
        acc_(static_cast<std::size_t>(a.cols()), 0.0),
        touched_((static_cast<std::size_t>(a.cols()) + 63) / 64, 0) {}

  /// Calls visit(j, alpha_j) for every column j that holds an entry in a row
  /// with rho_i != 0, in ascending j; alpha_j can still be 0 by cancellation.
  template <typename Visit>
  void for_each(const std::vector<double>& rho, Visit&& visit) {
    for (int i = 0; i < at_.cols(); ++i) {
      const double ri = rho[i];
      if (ri == 0.0) continue;
      for (std::size_t k = at_.col_begin(i); k < at_.col_end(i); ++k) {
        const int j = at_.row_index(k);
        acc_[j] += at_.value(k) * ri;
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
  SparseMatrix at_;
  std::vector<double> acc_;             // per column, all zero between calls
  std::vector<std::uint64_t> touched_;  // bitset of the columns acc_ holds
};

}  // namespace tcr
