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

RowProduct::RowProduct(const SparseMatrix& a)
    : ptr_(static_cast<std::size_t>(a.rows()) + 1, 0),
      col_(a.nnz()),
      val_(a.nnz()),
      acc_(static_cast<std::size_t>(a.cols()), 0.0),
      touched_((static_cast<std::size_t>(a.cols()) + 63) / 64, 0) {
  for (std::size_t k = 0; k < a.nnz(); ++k) ++ptr_[a.row_index(k) + 1];
  for (int i = 0; i < a.rows(); ++i) ptr_[i + 1] += ptr_[i];
  split_.assign(ptr_.begin() + 1, ptr_.end());
  std::vector<std::size_t> cursor(ptr_.begin(), ptr_.end() - 1);
  for (int j = 0; j < a.cols(); ++j) {
    for (std::size_t k = a.col_begin(j); k < a.col_end(j); ++k) {
      const std::size_t at = cursor[a.row_index(k)]++;
      col_[at] = j;
      val_[at] = a.value(k);
    }
  }
}

void RowProduct::exclude(const SparseMatrix& a, int j) {
  for (std::size_t k = a.col_begin(j); k < a.col_end(j); ++k) {
    const int i = a.row_index(k);
    std::size_t p = ptr_[i];
    while (col_[p] != j) ++p;
    swap_entries(p, --split_[i]);
  }
}

void RowProduct::include(const SparseMatrix& a, int j) {
  for (std::size_t k = a.col_begin(j); k < a.col_end(j); ++k) {
    const int i = a.row_index(k);
    std::size_t p = split_[i];
    while (col_[p] != j) ++p;
    swap_entries(p, split_[i]++);
  }
}

}  // namespace tcr
