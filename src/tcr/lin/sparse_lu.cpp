#include "tcr/lin/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tcr/util/check.hpp"

namespace tcr {

namespace {
// Number of candidate columns examined per pivot step. Small values keep the
// search cheap; Markowitz quality degrades only marginally.
constexpr int kMaxCandidates = 6;
}  // namespace

bool SparseLU::factor(const SparseMatrix& a, const std::vector<int>& basis) {
  m_ = static_cast<int>(basis.size());
  TCR_REQUIRE(a.rows() == m_, "basis must be square: one column per row");
  steps_.clear();
  steps_.reserve(m_);
  deficient_.clear();

  // Live rows of the active submatrix. Entry columns are basis *positions*.
  std::vector<std::vector<Entry>> rows(m_);
  // Rows that may contain a given column (lazy; may hold stale row ids).
  std::vector<std::vector<int>> colrows(m_);
  std::vector<int> ccount(m_, 0), rcount(m_, 0);
  std::vector<char> row_done(m_, 0), col_done(m_, 0);

  std::size_t nnz_guess = 0;
  for (int j = 0; j < m_; ++j) nnz_guess += a.col_end(basis[j]) - a.col_begin(basis[j]);
  for (int i = 0; i < m_; ++i) rows[i].reserve(4 + nnz_guess / static_cast<std::size_t>(m_));

  for (int j = 0; j < m_; ++j) {
    for (std::size_t k = a.col_begin(basis[j]); k < a.col_end(basis[j]); ++k) {
      const int r = a.row_index(k);
      rows[r].push_back({j, a.value(k)});
      colrows[j].push_back(r);
      ++ccount[j];
      ++rcount[r];
    }
  }

  // Lazy bucket queue over column counts.
  std::vector<std::vector<int>> buckets(m_ + 1);
  std::vector<char> queued(m_, 0);
  auto enqueue = [&](int j) {
    if (col_done[j] || queued[j]) return;
    const int b = std::clamp(ccount[j], 0, m_);
    buckets[b].push_back(j);
    queued[j] = 1;
  };
  for (int j = 0; j < m_; ++j) enqueue(j);

  // Dense scratch for the scattered pivot row.
  std::vector<double> work(m_, 0.0);
  std::vector<int> stamp(m_, -1), consumed(m_, -1);
  int scan_id = 0;

  // Live entries of one column, gathered on demand. A row can appear in
  // colrows[j] more than once (an entry cancelled and later re-created by
  // fill-in re-appends it), so deduplicate with a stamp.
  std::vector<std::pair<int, double>> col_entries;  // (row, value)
  std::vector<int> gather_stamp(m_, -1);
  int gather_id = 0;

  auto gather_column = [&](int j) {
    col_entries.clear();
    ++gather_id;
    auto& cr = colrows[j];
    std::size_t w = 0;
    for (std::size_t r = 0; r < cr.size(); ++r) {
      const int i = cr[r];
      if (row_done[i] || gather_stamp[i] == gather_id) continue;
      gather_stamp[i] = gather_id;
      double v = 0.0;
      bool found = false;
      for (const Entry& e : rows[i]) {
        if (e.col == j) {
          v = e.val;
          found = true;
          break;
        }
      }
      if (!found) continue;  // stale
      cr[w++] = i;
      col_entries.emplace_back(i, v);
    }
    cr.resize(w);
    ccount[j] = static_cast<int>(col_entries.size());
  };

  for (int t = 0; t < m_; ++t) {
    // ---- Pivot selection (partial Markowitz with threshold pivoting) ----
    int best_row = -1, best_col = -1;
    double best_val = 0.0;
    long long best_cost = std::numeric_limits<long long>::max();
    int candidates = 0;
    std::vector<int> examined;  // requeued after the search to avoid re-popping

    for (int b = 0; b <= m_ && candidates < kMaxCandidates; ++b) {
      while (!buckets[b].empty() && candidates < kMaxCandidates) {
        const int j = buckets[b].back();
        buckets[b].pop_back();
        queued[j] = 0;
        if (col_done[j]) continue;
        gather_column(j);
        if (ccount[j] == 0) {
          continue;  // structurally empty now; fill-in re-enqueues if it returns
        }
        if (ccount[j] > b) {
          enqueue(j);  // stale count grew: requeue in the right (later) bucket
          continue;
        }
        ++candidates;
        examined.push_back(j);
        double cmax = 0.0;
        for (const auto& [i, v] : col_entries) cmax = std::max(cmax, std::abs(v));
        for (const auto& [i, v] : col_entries) {
          if (std::abs(v) < tau_ * cmax || std::abs(v) < drop_tol_) continue;
          const long long cost =
              static_cast<long long>(rcount[i] - 1) * static_cast<long long>(ccount[j] - 1);
          if (cost < best_cost || (cost == best_cost && std::abs(v) > std::abs(best_val))) {
            best_cost = cost;
            best_row = i;
            best_col = j;
            best_val = v;
          }
        }
        if (best_cost == 0) break;
      }
      if (best_cost == 0) break;
    }
    for (int j : examined) enqueue(j);

    if (best_col < 0) {
      // No pivotable entry left: matrix is singular. Record which positions
      // never received a pivot.
      for (int j = 0; j < m_; ++j)
        if (!col_done[j]) deficient_.push_back(j);
      return false;
    }

    const int pi = best_row, pj = best_col;
    const double pval = best_val;

    // ---- Build the U row and scatter the pivot row ----
    Step step;
    step.pivot_row = pi;
    step.pivot_col = pj;
    step.pivot_val = pval;
    const int pivot_scan = ++scan_id;
    for (const Entry& e : rows[pi]) {
      if (e.col == pj) continue;
      step.u_row.push_back(e);
      work[e.col] = e.val;
      stamp[e.col] = pivot_scan;
    }

    // ---- Eliminate the pivot column from all other live rows ----
    gather_column(pj);
    std::vector<Entry> newrow;
    for (const auto& [i, v] : col_entries) {
      if (i == pi) continue;
      const double mult = v / pval;
      step.l_ops.emplace_back(i, mult);

      newrow.clear();
      newrow.reserve(rows[i].size() + step.u_row.size());
      const int row_scan = ++scan_id;
      for (const Entry& e : rows[i]) {
        if (e.col == pj) continue;  // eliminated by the pivot
        double nv = e.val;
        if (stamp[e.col] == pivot_scan) {
          // The pivot row also carries this column: combine.
          nv -= mult * work[e.col];
          consumed[e.col] = row_scan;
        }
        if (std::abs(nv) > drop_tol_) {
          newrow.push_back({e.col, nv});
        } else {
          --ccount[e.col];  // numerical cancellation removed a live entry
        }
      }
      // Fill-in from unconsumed pivot-row columns.
      for (const Entry& u : step.u_row) {
        if (consumed[u.col] == row_scan) continue;
        const double nv = -mult * u.val;
        if (std::abs(nv) > drop_tol_) {
          newrow.push_back({u.col, nv});
          ++ccount[u.col];
          colrows[u.col].push_back(i);
          enqueue(u.col);
        }
      }
      rows[i].assign(newrow.begin(), newrow.end());
      rcount[i] = static_cast<int>(rows[i].size());
    }

    // ---- Retire the pivot row/column ----
    row_done[pi] = 1;
    col_done[pj] = 1;
    for (const Entry& e : step.u_row) {
      --ccount[e.col];
      enqueue(e.col);
    }
    rows[pi].clear();
    rows[pi].shrink_to_fit();
    colrows[pj].clear();
    colrows[pj].shrink_to_fit();
    // Clear the scatter stamps for safety (stamps are scan-id based already).
    for (const Entry& e : step.u_row) {
      work[e.col] = 0.0;
      stamp[e.col] = -1;
    }

    steps_.push_back(std::move(step));
  }
  return true;
}

std::size_t SparseLU::factor_nnz() const {
  std::size_t n = 0;
  for (const auto& s : steps_) n += 1 + s.l_ops.size() + s.u_row.size();
  return n;
}

void SparseLU::solve(const std::vector<double>& b, std::vector<double>& x,
                     std::vector<double>& work) const {
  TCR_REQUIRE(static_cast<int>(b.size()) == m_, "rhs size mismatch");
  std::vector<double>& v = work;  // row space
  v.assign(b.begin(), b.end());
  for (const Step& s : steps_) {
    const double pivot = v[s.pivot_row];
    if (pivot != 0.0) {
      for (const auto& [r, mult] : s.l_ops) v[r] -= mult * pivot;
    }
  }
  x.assign(m_, 0.0);
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    double acc = v[it->pivot_row];
    for (const Entry& e : it->u_row) acc -= e.val * x[e.col];
    x[it->pivot_col] = acc / it->pivot_val;
  }
}

void SparseLU::solve_transpose(const std::vector<double>& c, std::vector<double>& y,
                               std::vector<double>& work) const {
  TCR_REQUIRE(static_cast<int>(c.size()) == m_, "rhs size mismatch");
  std::vector<double>& acc = work;  // position space
  acc.assign(c.begin(), c.end());
  y.assign(m_, 0.0);  // row space
  for (const Step& s : steps_) {
    const double z = acc[s.pivot_col] / s.pivot_val;
    y[s.pivot_row] = z;
    if (z != 0.0) {
      for (const Entry& e : s.u_row) acc[e.col] -= e.val * z;
    }
  }
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    double& yp = y[it->pivot_row];
    for (const auto& [r, mult] : it->l_ops) yp -= mult * y[r];
  }
}

}  // namespace tcr
