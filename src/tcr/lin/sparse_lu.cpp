#include "tcr/lin/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tcr/obs/registry.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

namespace {
// Number of candidate columns examined per pivot step. Small values keep the
// search cheap; Markowitz quality degrades only marginally.
constexpr int kMaxCandidates = 6;

// An entry of the active submatrix in its row: the column (basis position),
// the index of its slot in that column's list, and the value.
struct RowEntry {
  int col;
  int slot;
  double val;
};
// A slot in a column's list: the row, and the entry's index in that row or
// kCancelled after the entry cancelled.
struct Slot {
  int row;
  int k;
};
constexpr int kCancelled = -1;
// The slot a cancelled entry left behind, kept on its row's list (linked by
// `next`) so that fill-in at the same (row, column) can find and reuse it.
struct Cancelled {
  int col;
  int slot;
  int next;
};
}  // namespace

bool SparseLU::factor(const SparseMatrix& a, const std::vector<int>& basis) {
  static obs::Counter& slot_reuses = obs::Registry::instance().counter("lin.lu.slot_reuses");
  m_ = static_cast<int>(basis.size());
  TCR_REQUIRE(a.rows() == m_, "basis must be square: one column per row");
  steps_.clear();
  steps_.reserve(m_);
  l_.clear();
  u_.clear();
  deficient_.clear();

  // Live rows of the active submatrix, and per column the slots of the rows
  // that hold it (a slot may be cancelled, or name a retired row, until the
  // column is next gathered).
  std::vector<std::vector<RowEntry>> rows(m_);
  std::vector<std::vector<Slot>> cols(m_);
  std::vector<int> ccount(m_, 0), rcount(m_, 0), holes(m_, 0);
  std::vector<char> row_done(m_, 0), col_done(m_, 0);
  // Rows holding an initial entry at or below drop_tol: their first
  // elimination checks every entry, not only the combined ones.
  std::vector<char> unchecked(m_, 0);
  const int kHole = m_;  // column of a hole; never scattered, never a pivot

  std::size_t nnz_guess = 0;
  for (int j = 0; j < m_; ++j) nnz_guess += a.col_end(basis[j]) - a.col_begin(basis[j]);
  for (int i = 0; i < m_; ++i) rows[i].reserve(4 + nnz_guess / static_cast<std::size_t>(m_));

  for (int j = 0; j < m_; ++j) {
    for (std::size_t k = a.col_begin(basis[j]); k < a.col_end(basis[j]); ++k) {
      const int r = a.row_index(k);
      rows[r].push_back({j, static_cast<int>(cols[j].size()), a.value(k)});
      cols[j].push_back({r, static_cast<int>(rows[r].size()) - 1});
      if (!(std::abs(a.value(k)) > drop_tol_)) unchecked[r] = 1;
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
  std::vector<int> stamp(m_ + 1, -1), consumed(m_, -1);  // stamp[kHole] stays -1
  int scan_id = 0;

  // Cancelled slots, listed per row; reuse_slot/reuse_stamp mark the ones a
  // row's fill-in may take in the current elimination.
  std::vector<Cancelled> cancelled;
  std::vector<int> cancelled_head(m_, -1);
  std::vector<int> reuse_slot(m_, 0), reuse_stamp(m_, -1);
  std::int64_t reuses = 0;

  // Live entries of one column, gathered on demand. Cancelled slots and
  // slots of retired rows are dropped; the rest keep their order.
  std::vector<std::pair<int, double>> col_entries;  // (row, value)
  auto gather_column = [&](int j) {
    col_entries.clear();
    auto& cs = cols[j];
    std::size_t w = 0;
    for (std::size_t s = 0; s < cs.size(); ++s) {
      const Slot slot = cs[s];
      if (slot.k == kCancelled || row_done[slot.row]) continue;
      RowEntry& e = rows[slot.row][slot.k];
      if (w != s) {
        e.slot = static_cast<int>(w);
        cs[w] = slot;
      }
      ++w;
      col_entries.emplace_back(slot.row, e.val);
    }
    cs.resize(w);
    ccount[j] = static_cast<int>(col_entries.size());
  };

  std::vector<int> examined;  // requeued after each search to avoid re-popping
  for (int t = 0; t < m_; ++t) {
    // ---- Pivot selection (partial Markowitz with threshold pivoting) ----
    int best_row = -1, best_col = -1;
    double best_val = 0.0;
    long long best_cost = std::numeric_limits<long long>::max();
    int candidates = 0;
    examined.clear();

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
      slot_reuses.add(reuses);
      return false;
    }

    const int pi = best_row, pj = best_col;
    const double pval = best_val;

    // ---- Build the U row and scatter the pivot row ----
    const std::size_t u_begin = u_.size();
    const int pivot_scan = ++scan_id;
    for (const RowEntry& e : rows[pi]) {
      if (e.col == pj || e.col == kHole) continue;
      u_.push_back({e.col, e.val});
      work[e.col] = e.val;
      stamp[e.col] = pivot_scan;
    }
    const std::size_t u_end = u_.size();

    // ---- Eliminate the pivot column from all other live rows ----
    gather_column(pj);
    const std::size_t l_begin = l_.size();
    for (const auto& [i, v] : col_entries) {
      if (i == pi) continue;
      const double mult = v / pval;
      l_.emplace_back(i, mult);

      // Update row i in place: the pivot column's entry and every entry
      // that cancels become holes.
      std::vector<RowEntry>& row = rows[i];
      const int row_scan = ++scan_id;
      const bool check_all = unchecked[i];
      unchecked[i] = 0;
      for (RowEntry& e : row) {
        if (e.col == pj) {
          e.col = kHole;
          ++holes[i];
          continue;
        }
        if (stamp[e.col] == pivot_scan) {
          // The pivot row also carries this column: combine.
          e.val -= mult * work[e.col];
          consumed[e.col] = row_scan;
        } else if (!check_all) {
          continue;
        }
        if (!(std::abs(e.val) > drop_tol_)) {
          --ccount[e.col];  // numerical cancellation removed a live entry
          cols[e.col][e.slot].k = kCancelled;
          cancelled.push_back({e.col, e.slot, cancelled_head[i]});
          cancelled_head[i] = static_cast<int>(cancelled.size()) - 1;
          e.col = kHole;
          ++holes[i];
        }
      }
      if (4 * holes[i] > static_cast<int>(row.size())) {
        // Squeeze the holes out, in order, re-pointing the moved entries.
        std::size_t w = 0;
        for (std::size_t k = 0; k < row.size(); ++k) {
          const RowEntry e = row[k];
          if (e.col == kHole) continue;
          if (w != k) {
            cols[e.col][e.slot].k = static_cast<int>(w);
            row[w] = e;
          }
          ++w;
        }
        row.resize(w);
        holes[i] = 0;
      }

      // Mark this row's cancelled slots for reuse by its fill-in; drop the
      // ones a gather has since removed.
      for (int* link = &cancelled_head[i]; *link >= 0;) {
        Cancelled& c = cancelled[*link];
        const auto& cs = cols[c.col];
        if (static_cast<std::size_t>(c.slot) >= cs.size() || cs[c.slot].row != i ||
            cs[c.slot].k != kCancelled) {
          *link = c.next;
          continue;
        }
        reuse_slot[c.col] = c.slot;
        reuse_stamp[c.col] = row_scan;
        link = &c.next;
      }

      // Fill-in from unconsumed pivot-row columns, appended in pivot-row order.
      for (std::size_t k = u_begin; k < u_end; ++k) {
        const Entry u = u_[k];
        if (consumed[u.col] == row_scan) continue;
        const double nv = -mult * u.val;
        if (std::abs(nv) > drop_tol_) {
          auto& cs = cols[u.col];
          const int pos = static_cast<int>(row.size());
          int slot;
          if (reuse_stamp[u.col] == row_scan) {
            slot = reuse_slot[u.col];
            cs[slot].k = pos;
            ++reuses;
          } else {
            slot = static_cast<int>(cs.size());
            cs.push_back({i, pos});
          }
          row.push_back({u.col, slot, nv});
          ++ccount[u.col];
          enqueue(u.col);
        }
      }
      rcount[i] = static_cast<int>(row.size()) - holes[i];
    }

    // ---- Retire the pivot row/column ----
    row_done[pi] = 1;
    col_done[pj] = 1;
    for (std::size_t k = u_begin; k < u_end; ++k) {
      --ccount[u_[k].col];
      enqueue(u_[k].col);
    }
    rows[pi].clear();
    rows[pi].shrink_to_fit();
    cols[pj].clear();
    cols[pj].shrink_to_fit();
    // Clear the scatter stamps for safety (stamps are scan-id based already).
    for (std::size_t k = u_begin; k < u_end; ++k) {
      work[u_[k].col] = 0.0;
      stamp[u_[k].col] = -1;
    }

    steps_.push_back({pi, pj, pval, l_begin, l_.size(), u_begin, u_end});
  }
  slot_reuses.add(reuses);
  return true;
}

void SparseLU::solve(const std::vector<double>& b, std::vector<double>& x,
                     std::vector<double>& work) const {
  TCR_REQUIRE(static_cast<int>(b.size()) == m_, "rhs size mismatch");
  std::vector<double>& v = work;  // row space
  v.assign(b.begin(), b.end());
  for (const Step& s : steps_) {
    const double pivot = v[s.pivot_row];
    if (pivot != 0.0) {
      for (std::size_t k = s.l_begin; k < s.l_end; ++k) v[l_[k].first] -= l_[k].second * pivot;
    }
  }
  x.assign(m_, 0.0);
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    double acc = v[it->pivot_row];
    for (std::size_t k = it->u_begin; k < it->u_end; ++k) acc -= u_[k].val * x[u_[k].col];
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
      for (std::size_t k = s.u_begin; k < s.u_end; ++k) acc[u_[k].col] -= u_[k].val * z;
    }
  }
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    double& yp = y[it->pivot_row];
    for (std::size_t k = it->l_begin; k < it->l_end; ++k) yp -= l_[k].second * y[l_[k].first];
  }
}

}  // namespace tcr
