#include "tcr/lin/sparse.hpp"

#include <algorithm>
#include <cmath>

#include "tcr/util/check.hpp"

namespace tcr {

SparseMatrix::SparseMatrix(int rows, int cols, const std::vector<Triplet>& triplets,
                           double drop_tol)
    : rows_(rows), cols_(cols) {
  TCR_REQUIRE(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  // Count entries per column, bucket, then sort rows and merge duplicates.
  std::vector<std::size_t> count(static_cast<std::size_t>(cols) + 1, 0);
  for (const auto& t : triplets) {
    TCR_REQUIRE(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                "triplet index out of range");
    ++count[t.col + 1];
  }
  std::vector<std::size_t> pos(static_cast<std::size_t>(cols) + 1, 0);
  for (int j = 0; j < cols; ++j) pos[j + 1] = pos[j] + count[j + 1];

  std::vector<int> rix(triplets.size());
  std::vector<double> val(triplets.size());
  {
    std::vector<std::size_t> cursor(pos.begin(), pos.end() - 1);
    for (const auto& t : triplets) {
      const std::size_t k = cursor[t.col]++;
      rix[k] = t.row;
      val[k] = t.value;
    }
  }

  col_ptr_.assign(static_cast<std::size_t>(cols) + 1, 0);
  row_idx_.reserve(triplets.size());
  values_.reserve(triplets.size());
  std::vector<std::size_t> order;
  for (int j = 0; j < cols; ++j) {
    const std::size_t lo = pos[j], hi = (j + 1 <= cols) ? pos[j + 1] : triplets.size();
    order.clear();
    for (std::size_t k = lo; k < hi; ++k) order.push_back(k);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return rix[a] < rix[b]; });
    for (std::size_t idx = 0; idx < order.size();) {
      const int r = rix[order[idx]];
      double sum = 0.0;
      while (idx < order.size() && rix[order[idx]] == r) sum += val[order[idx++]];
      if (std::abs(sum) > drop_tol) {
        row_idx_.push_back(r);
        values_.push_back(sum);
      }
    }
    col_ptr_[j + 1] = row_idx_.size();
  }
}

void SparseMatrix::add_column_to(int j, double alpha, std::vector<double>& y) const {
  for (std::size_t k = col_begin(j); k < col_end(j); ++k) y[row_idx_[k]] += alpha * values_[k];
}

double SparseMatrix::column_dot(int j, const std::vector<double>& x) const {
  double acc = 0.0;
  for (std::size_t k = col_begin(j); k < col_end(j); ++k) acc += values_[k] * x[row_idx_[k]];
  return acc;
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  TCR_REQUIRE(static_cast<int>(x.size()) == cols_, "dimension mismatch");
  std::vector<double> y(static_cast<std::size_t>(rows_), 0.0);
  for (int j = 0; j < cols_; ++j) {
    if (x[j] != 0.0) add_column_to(j, x[j], y);
  }
  return y;
}

std::vector<double> SparseMatrix::multiply_transpose(const std::vector<double>& x) const {
  TCR_REQUIRE(static_cast<int>(x.size()) == rows_, "dimension mismatch");
  std::vector<double> y(static_cast<std::size_t>(cols_), 0.0);
  for (int j = 0; j < cols_; ++j) y[j] = column_dot(j, x);
  return y;
}

SparseMatrix SparseMatrix::transpose() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.col_ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  for (const int r : row_idx_) ++t.col_ptr_[r + 1];
  for (int i = 0; i < rows_; ++i) t.col_ptr_[i + 1] += t.col_ptr_[i];
  t.row_idx_.resize(row_idx_.size());
  t.values_.resize(values_.size());
  std::vector<std::size_t> cursor(t.col_ptr_.begin(), t.col_ptr_.end() - 1);
  for (int j = 0; j < cols_; ++j) {
    for (std::size_t k = col_begin(j); k < col_end(j); ++k) {
      const std::size_t at = cursor[row_idx_[k]]++;
      t.row_idx_[at] = j;
      t.values_[at] = values_[k];
    }
  }
  return t;
}

}  // namespace tcr
