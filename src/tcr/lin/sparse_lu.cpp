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

// The dense tail: once the active submatrix has at least this many rows and
// at least half its entries are nonzero, factor() finishes it as a dense
// block. Below the size, the linked lists stay cheap enough.
constexpr int kDenseTailMinRows = 100;

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

// Variable-length lists — the rows, or the column lists, of the active
// submatrix — packed into one array that every factorization reuses. A list
// that outgrows its room moves to the free end; when the end reaches the
// array's size, the live lists slide down in place, and the array grows by
// half only when that frees less than a quarter of it. A list is addressed by
// index, never by a pointer kept across a push_back, which can move it.
template <typename T>
struct ListPool {
  std::vector<T> pool;
  std::vector<std::size_t> begin;
  std::vector<int> len, room;
  std::size_t end = 0;     // first unused element of pool
  std::vector<int> order;  // compaction scratch

  // Lay out lists 0..n-1 empty, in order, list i with room for count[i] + slack.
  void reset(const std::vector<int>& count, int slack) {
    const int n = static_cast<int>(count.size());
    begin.resize(n);
    len.assign(n, 0);
    room.resize(n);
    end = 0;
    for (int i = 0; i < n; ++i) {
      begin[i] = end;
      room[i] = count[i] + slack;
      end += static_cast<std::size_t>(room[i]);
    }
    if (pool.size() < end + end / 2) pool.resize(end + end / 2);
  }
  T* data(int i) { return pool.data() + begin[i]; }
  T& at(int i, int k) { return pool[begin[i] + k]; }
  int size(int i) const { return len[i]; }
  void push_back(int i, const T& v) {
    if (len[i] == room[i]) grow(i);
    pool[begin[i] + len[i]++] = v;
  }
  void shrink(int i, int n) { len[i] = n; }
  // Drop list i and its room.
  void release(int i) { len[i] = room[i] = 0; }

 private:
  void grow(int i) {
    const int want = std::max(2 * len[i], len[i] + 4);
    if (begin[i] + room[i] == end && begin[i] + want <= pool.size()) {
      end = begin[i] + want;  // the last list: extend in place
      room[i] = want;
      return;
    }
    if (end + want > pool.size()) {
      compact();
      if (4 * (end + want) > 3 * pool.size()) {
        pool.resize(std::max(pool.size() + pool.size() / 2, end + want));
      }
    }
    std::copy_n(pool.begin() + begin[i], len[i], pool.begin() + end);
    begin[i] = end;
    room[i] = want;
    end += want;
  }
  // Slide the live lists down, in storage order, leaving no room to spare.
  void compact() {
    order.clear();
    for (int i = 0; i < static_cast<int>(room.size()); ++i)
      if (room[i] > 0) order.push_back(i);
    std::sort(order.begin(), order.end(), [&](int x, int y) { return begin[x] < begin[y]; });
    end = 0;
    for (const int i : order) {
      const auto from = pool.begin() + static_cast<std::ptrdiff_t>(begin[i]);
      std::copy(from, from + len[i], pool.begin() + static_cast<std::ptrdiff_t>(end));
      begin[i] = end;
      room[i] = len[i];
      end += len[i];
    }
  }
};
}  // namespace

struct SparseLU::Workspace {
  // Live rows of the active submatrix, and per column the slots of the rows
  // that hold it (a slot may be cancelled, or name a retired row, until the
  // column is next gathered).
  ListPool<RowEntry> rows;
  ListPool<Slot> cols;
  std::vector<int> ccount, rcount, holes;
  std::vector<char> row_done, col_done;
  // Rows holding an initial entry at or below drop_tol: their first
  // elimination checks every entry, not only the combined ones.
  std::vector<char> unchecked;
  // Lazy bucket queue over column counts.
  std::vector<std::vector<int>> buckets;
  std::vector<char> queued;
  // Dense scratch for the scattered pivot row.
  std::vector<double> work;
  std::vector<int> stamp, consumed;
  // Cancelled slots, listed per row; reuse_slot/reuse_stamp mark the ones a
  // row's fill-in may take in the current elimination.
  std::vector<Cancelled> cancelled;
  std::vector<int> cancelled_head;
  std::vector<int> reuse_slot, reuse_stamp;
  std::vector<std::pair<int, double>> col_entries;  // (row, value)
  std::vector<int> examined;
  // The dense tail: the matrix row of each block row (permuted by the
  // pivoting), the basis position of each block column, and each live
  // position's block column.
  std::vector<int> dense_row, dense_col, block_col;

  // Size the per-row and per-column state for an m x m factorization,
  // keeping the storage; factor() lays out the row and column lists.
  void reset(int m) {
    ccount.assign(m, 0);
    rcount.assign(m, 0);
    holes.assign(m, 0);
    row_done.assign(m, 0);
    col_done.assign(m, 0);
    unchecked.assign(m, 0);
    buckets.resize(m + 1);
    for (auto& b : buckets) b.clear();
    queued.assign(m, 0);
    work.assign(m, 0.0);
    stamp.assign(m + 1, -1);  // stamp[kHole] stays -1
    consumed.assign(m, -1);
    cancelled.clear();
    cancelled_head.assign(m, -1);
    reuse_slot.assign(m, 0);
    reuse_stamp.assign(m, -1);
    block_col.resize(m);
  }
};

void SparseLU::WorkspaceDeleter::operator()(Workspace* w) const { delete w; }

bool SparseLU::factor(const SparseMatrix& a, const std::vector<int>& basis) {
  static obs::Counter& slot_reuses = obs::Registry::instance().counter("lin.lu.slot_reuses");
  m_ = static_cast<int>(basis.size());
  TCR_REQUIRE(a.rows() == m_, "basis must be square: one column per row");
  steps_.clear();
  steps_.reserve(m_);
  l_.clear();
  u_.clear();
  deficient_.clear();
  deficient_rows_.clear();
  etas_.clear();
  r_.clear();
  links_.clear();
  factored_ = 0;
  fresh_nnz_ = 0;

  if (!ws_) ws_.reset(new Workspace);
  Workspace& ws = *ws_;
  ws.reset(m_);
  auto& rows = ws.rows;
  auto& cols = ws.cols;
  auto& ccount = ws.ccount;
  auto& rcount = ws.rcount;
  auto& holes = ws.holes;
  auto& row_done = ws.row_done;
  auto& col_done = ws.col_done;
  auto& unchecked = ws.unchecked;
  const int kHole = m_;  // column of a hole; never scattered, never a pivot

  for (int j = 0; j < m_; ++j) {
    ccount[j] = static_cast<int>(a.col_end(basis[j]) - a.col_begin(basis[j]));
    for (std::size_t k = a.col_begin(basis[j]); k < a.col_end(basis[j]); ++k) {
      ++rcount[a.row_index(k)];
    }
  }
  // Nonzeros of the active submatrix: the sum of rcount over live rows.
  std::int64_t live_nnz = 0;
  for (int i = 0; i < m_; ++i) live_nnz += rcount[i];
  rows.reset(rcount, 4);
  cols.reset(ccount, 4);
  for (int j = 0; j < m_; ++j) {
    for (std::size_t k = a.col_begin(basis[j]); k < a.col_end(basis[j]); ++k) {
      const int r = a.row_index(k);
      rows.push_back(r, {j, cols.size(j), a.value(k)});
      cols.push_back(j, {r, rows.size(r) - 1});
      if (!(std::abs(a.value(k)) > drop_tol_)) unchecked[r] = 1;
    }
  }

  auto& buckets = ws.buckets;
  auto& queued = ws.queued;
  auto enqueue = [&](int j) {
    if (col_done[j] || queued[j]) return;
    const int b = std::clamp(ccount[j], 0, m_);
    buckets[b].push_back(j);
    queued[j] = 1;
  };
  for (int j = 0; j < m_; ++j) enqueue(j);

  auto& work = ws.work;
  auto& stamp = ws.stamp;
  auto& consumed = ws.consumed;
  int scan_id = 0;

  auto& cancelled = ws.cancelled;
  auto& cancelled_head = ws.cancelled_head;
  auto& reuse_slot = ws.reuse_slot;
  auto& reuse_stamp = ws.reuse_stamp;
  std::int64_t reuses = 0;

  // Live entries of one column, gathered on demand. Cancelled slots and
  // slots of retired rows are dropped; the rest keep their order.
  auto& col_entries = ws.col_entries;
  auto gather_column = [&](int j) {
    col_entries.clear();
    Slot* cs = cols.data(j);
    const int n = cols.size(j);
    int w = 0;
    for (int s = 0; s < n; ++s) {
      const Slot slot = cs[s];
      if (slot.k == kCancelled || row_done[slot.row]) continue;
      RowEntry& e = rows.at(slot.row, slot.k);
      if (w != s) {
        e.slot = w;
        cs[w] = slot;
      }
      ++w;
      col_entries.emplace_back(slot.row, e.val);
    }
    cols.shrink(j, w);
    ccount[j] = w;
  };

  auto& examined = ws.examined;  // requeued after each search to avoid re-popping
  bool dense_tail = false;
  for (int t = 0; t < m_; ++t) {
    const std::int64_t r = m_ - t;
    if (r >= kDenseTailMinRows && 2 * live_nnz >= r * r) {
      dense_tail = true;
      break;
    }

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
      for (int i = 0; i < m_; ++i)
        if (!row_done[i]) deficient_rows_.push_back(i);
      slot_reuses.add(reuses);
      return false;
    }

    const int pi = best_row, pj = best_col;
    const double pval = best_val;

    // ---- Build the U row and scatter the pivot row ----
    const std::size_t u_begin = u_.size();
    const int pivot_scan = ++scan_id;
    const RowEntry* prow = rows.data(pi);
    for (int k = 0, n = rows.size(pi); k < n; ++k) {
      const RowEntry& e = prow[k];
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
      RowEntry* row = rows.data(i);
      const int len = rows.size(i);
      const int row_scan = ++scan_id;
      const bool check_all = unchecked[i];
      unchecked[i] = 0;
      for (int k = 0; k < len; ++k) {
        RowEntry& e = row[k];
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
          cols.at(e.col, e.slot).k = kCancelled;
          cancelled.push_back({e.col, e.slot, cancelled_head[i]});
          cancelled_head[i] = static_cast<int>(cancelled.size()) - 1;
          e.col = kHole;
          ++holes[i];
        }
      }
      if (4 * holes[i] > len) {
        // Squeeze the holes out, in order, re-pointing the moved entries.
        int w = 0;
        for (int k = 0; k < len; ++k) {
          const RowEntry e = row[k];
          if (e.col == kHole) continue;
          if (w != k) {
            cols.at(e.col, e.slot).k = w;
            row[w] = e;
          }
          ++w;
        }
        rows.shrink(i, w);
        holes[i] = 0;
      }

      // Mark this row's cancelled slots for reuse by its fill-in; drop the
      // ones a gather has since removed.
      for (int* link = &cancelled_head[i]; *link >= 0;) {
        Cancelled& c = cancelled[*link];
        if (c.slot >= cols.size(c.col) || cols.at(c.col, c.slot).row != i ||
            cols.at(c.col, c.slot).k != kCancelled) {
          *link = c.next;
          continue;
        }
        reuse_slot[c.col] = c.slot;
        reuse_stamp[c.col] = row_scan;
        link = &c.next;
      }

      // Fill-in from unconsumed pivot-row columns, appended in pivot-row
      // order (each push_back may move row i or the column's list).
      for (std::size_t k = u_begin; k < u_end; ++k) {
        const Entry u = u_[k];
        if (consumed[u.idx] == row_scan) continue;
        const double nv = -mult * u.val;
        if (std::abs(nv) > drop_tol_) {
          const int pos = rows.size(i);
          int slot;
          if (reuse_stamp[u.idx] == row_scan) {
            slot = reuse_slot[u.idx];
            cols.at(u.idx, slot).k = pos;
            ++reuses;
          } else {
            slot = cols.size(u.idx);
            cols.push_back(u.idx, {i, pos});
          }
          rows.push_back(i, {u.idx, slot, nv});
          ++ccount[u.idx];
          enqueue(u.idx);
        }
      }
      live_nnz -= rcount[i];
      rcount[i] = rows.size(i) - holes[i];
      live_nnz += rcount[i];
    }

    // ---- Retire the pivot row/column ----
    row_done[pi] = 1;
    col_done[pj] = 1;
    live_nnz -= rcount[pi];
    for (std::size_t k = u_begin; k < u_end; ++k) {
      --ccount[u_[k].idx];
      enqueue(u_[k].idx);
    }
    rows.release(pi);
    cols.release(pj);
    // Clear the scatter stamps for safety (stamps are scan-id based already).
    for (std::size_t k = u_begin; k < u_end; ++k) {
      work[u_[k].idx] = 0.0;
      stamp[u_[k].idx] = -1;
    }

    steps_.push_back({pi, pj, pval, l_begin, l_.size(), u_begin, u_end, Kind::kRow});
  }
  slot_reuses.add(reuses);
  if (dense_tail && !factor_dense_tail()) return false;

  // Update state: each position's step, and the U entries of each column.
  factored_ = steps_.size();
  fresh_nnz_ = factor_nnz();
  step_of_col_.assign(m_, -1);
  for (std::size_t t = 0; t < factored_; ++t) {
    step_of_col_[steps_[t].pivot_col] = static_cast<int>(t);
  }
  ucol_ptr_.assign(static_cast<std::size_t>(m_) + 1, 0);
  for (const Entry& e : u_) ++ucol_ptr_[e.idx];
  for (int j = 1; j < m_; ++j) ucol_ptr_[j] += ucol_ptr_[j - 1];
  ucol_ptr_[m_] = u_.size();
  ucol_.resize(u_.size());
  for (std::size_t k = u_.size(); k-- > 0;) ucol_[--ucol_ptr_[u_[k].idx]] = k;
  link_head_.assign(m_, -1);
  upd_col_.assign(m_, 0.0);
  upd_row_.assign(m_, 0.0);
  return true;
}

bool SparseLU::factor_dense_tail() {
  static obs::Counter& tails = obs::Registry::instance().counter("lin.lu.dense_tails");
  static obs::Histogram& tail_rows =
      obs::Registry::instance().histogram("lin.lu.dense_tail_rows", 1.0, 2.0);
  Workspace& ws = *ws_;
  const int kHole = m_;
  auto& prow = ws.dense_row;
  auto& pcol = ws.dense_col;
  prow.clear();
  pcol.clear();
  for (int i = 0; i < m_; ++i)
    if (!ws.row_done[i]) prow.push_back(i);
  for (int j = 0; j < m_; ++j) {
    if (ws.col_done[j]) continue;
    ws.block_col[j] = static_cast<int>(pcol.size());
    pcol.push_back(j);
  }
  const int r = static_cast<int>(prow.size());
  TCR_ASSERT(static_cast<int>(pcol.size()) == r, "dense tail must be square");
  tails.add(1);
  tail_rows.record(r);

  // d[c * n + b]: block row b, block column c. Allocated per tail, not kept
  // in the workspace: on fig6-k8-warm (4-vCPU Xeon) a kept buffer raised
  // peak RSS by 8%, a per-tail one by 2-4%, at no measurable time cost.
  const auto n = static_cast<std::size_t>(r);
  std::vector<double> d(n * n, 0.0);
  for (std::size_t b = 0; b < n; ++b) {
    const RowEntry* row = ws.rows.data(prow[b]);
    for (int k = 0, len = ws.rows.size(prow[b]); k < len; ++k) {
      if (row[k].col != kHole) d[ws.block_col[row[k].col] * n + b] = row[k].val;
    }
  }

  // Right-looking elimination with row partial pivoting, the columns in
  // ascending position order. Block rows [0, k) hold the k pivots taken so
  // far; a column with nothing above drop_tol left in rows [k, r) is
  // deferred for good, since later eliminations only add multiples of its
  // (equally negligible) entries in the pivot rows.
  std::size_t k = 0;
  for (std::size_t c = 0; c < n; ++c) {
    double* col = d.data() + c * n;
    std::size_t p = k;
    double pmax = 0.0;
    for (std::size_t b = k; b < n; ++b) {
      if (std::abs(col[b]) > pmax) {
        pmax = std::abs(col[b]);
        p = b;
      }
    }
    if (!(pmax > drop_tol_)) {
      deficient_.push_back(pcol[c]);
      continue;
    }
    if (p != k) {
      std::swap(prow[p], prow[k]);
      for (std::size_t c2 = c; c2 < n; ++c2) std::swap(d[c2 * n + p], d[c2 * n + k]);
    }
    const double pval = col[k];
    const std::size_t l_begin = l_.size();
    for (std::size_t b = k + 1; b < n; ++b) {
      if (col[b] == 0.0) continue;
      col[b] /= pval;
      l_.emplace_back(prow[b], col[b]);
    }
    const std::size_t u_begin = u_.size();
    for (std::size_t c2 = c + 1; c2 < n; ++c2) {
      double* dst = d.data() + c2 * n;
      const double v = dst[k];
      if (!(std::abs(v) > drop_tol_)) continue;
      u_.push_back({pcol[c2], v});
      for (std::size_t b = k + 1; b < n; ++b) dst[b] -= col[b] * v;
    }
    steps_.push_back({prow[k], pcol[c], pval, l_begin, l_.size(), u_begin, u_.size(), Kind::kRow});
    ++k;
  }
  deficient_rows_.assign(prow.begin() + static_cast<std::ptrdiff_t>(k), prow.end());
  return deficient_.empty();
}

void SparseLU::solve(const std::vector<double>& b, std::vector<double>& x,
                     std::vector<double>& work, std::vector<double>* spike) const {
  TCR_REQUIRE(static_cast<int>(b.size()) == m_, "rhs size mismatch");
  std::vector<double>& v = work;  // row space
  v.assign(b.begin(), b.end());
  for (std::size_t t = 0; t < factored_; ++t) {
    const Step& s = steps_[t];
    const double pivot = v[s.pivot_row];
    if (pivot != 0.0) {
      for (std::size_t k = s.l_begin; k < s.l_end; ++k) v[l_[k].first] -= l_[k].second * pivot;
    }
  }
  for (const RowEta& e : etas_) {
    double acc = v[e.row];
    for (std::size_t k = e.begin; k < e.end; ++k) acc -= r_[k].second * v[r_[k].first];
    v[e.row] = acc;
  }
  if (spike != nullptr) spike->assign(v.begin(), v.end());
  x.assign(m_, 0.0);
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    if (it->kind == Kind::kRow) {
      double acc = v[it->pivot_row];
      for (std::size_t k = it->u_begin; k < it->u_end; ++k) acc -= u_[k].val * x[u_[k].idx];
      x[it->pivot_col] = acc / it->pivot_val;
    } else if (it->kind == Kind::kSpike) {
      const double xc = v[it->pivot_row] / it->pivot_val;
      x[it->pivot_col] = xc;
      if (xc != 0.0) {
        for (std::size_t k = it->u_begin; k < it->u_end; ++k) v[u_[k].idx] -= u_[k].val * xc;
      }
    }
  }
}

void SparseLU::solve_transpose(const std::vector<double>& c, std::vector<double>& y,
                               std::vector<double>& work) const {
  TCR_REQUIRE(static_cast<int>(c.size()) == m_, "rhs size mismatch");
  std::vector<double>& acc = work;  // position space
  acc.assign(c.begin(), c.end());
  y.assign(m_, 0.0);  // row space
  for (const Step& s : steps_) {
    if (s.kind == Kind::kRow) {
      const double z = acc[s.pivot_col] / s.pivot_val;
      y[s.pivot_row] = z;
      if (z != 0.0) {
        for (std::size_t k = s.u_begin; k < s.u_end; ++k) acc[u_[k].idx] -= u_[k].val * z;
      }
    } else if (s.kind == Kind::kSpike) {
      double a = acc[s.pivot_col];
      for (std::size_t k = s.u_begin; k < s.u_end; ++k) a -= u_[k].val * y[u_[k].idx];
      y[s.pivot_row] = a / s.pivot_val;
    }
  }
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const double yr = y[it->row];
    if (yr != 0.0) {
      for (std::size_t k = it->begin; k < it->end; ++k) y[r_[k].first] -= r_[k].second * yr;
    }
  }
  for (std::size_t t = factored_; t-- > 0;) {
    const Step& s = steps_[t];
    double& yp = y[s.pivot_row];
    for (std::size_t k = s.l_begin; k < s.l_end; ++k) yp -= l_[k].second * y[l_[k].first];
  }
}

bool SparseLU::update(int position, const std::vector<double>& spike) {
  TCR_REQUIRE(static_cast<int>(spike.size()) == m_, "spike size mismatch");
  const int s = step_of_col_[position];
  const Step old = steps_[s];
  const int r = old.pivot_row;
  const std::size_t eta_begin = r_.size();

  // Row r of U, off the diagonal, by column: the factor step's own U row, and
  // the entries of later spikes on row r (every live spike holding row r
  // comes after step s).
  std::vector<double>& row = upd_col_;  // position space
  if (old.kind == Kind::kRow) {
    for (std::size_t k = old.u_begin; k < old.u_end; ++k) row[u_[k].idx] += u_[k].val;
  }
  for (int l = link_head_[r]; l >= 0; l = links_[l].next) {
    row[steps_[links_[l].step].pivot_col] += u_[links_[l].k].val;
  }

  // Eliminate it against the later steps in pivot order (a forward solve
  // with U' over those steps). The multipliers, by row, go to r_ as the new
  // row eta, and fold the spike into the new diagonal.
  std::vector<double>& mult_of_row = upd_row_;  // row space
  double diag = spike[r];
  double scale = std::abs(diag);
  for (std::size_t t = static_cast<std::size_t>(s) + 1; t < steps_.size(); ++t) {
    const Step& st = steps_[t];
    if (st.kind == Kind::kRetired) continue;
    double v = row[st.pivot_col];
    row[st.pivot_col] = 0.0;
    if (st.kind == Kind::kSpike) {
      for (std::size_t k = st.u_begin; k < st.u_end; ++k) v -= u_[k].val * mult_of_row[u_[k].idx];
    }
    if (v == 0.0) continue;
    const double mult = v / st.pivot_val;
    mult_of_row[st.pivot_row] = mult;
    r_.emplace_back(st.pivot_row, mult);
    diag -= mult * spike[st.pivot_row];
    scale += std::abs(mult * spike[st.pivot_row]);
    if (st.kind == Kind::kRow) {
      for (std::size_t k = st.u_begin; k < st.u_end; ++k) row[u_[k].idx] -= u_[k].val * mult;
    }
  }
  for (std::size_t k = eta_begin; k < r_.size(); ++k) mult_of_row[r_[k].first] = 0.0;

  // Cancellation down to rounding noise: the new column lies in the span of
  // the others.
  if (!(std::abs(diag) > 1e-11 * scale)) {
    r_.resize(eta_begin);
    return false;
  }

  // Drop the replaced column and the moved row from U.
  if (old.kind == Kind::kRow) {
    for (std::size_t k = ucol_ptr_[position]; k < ucol_ptr_[position + 1]; ++k) {
      u_[ucol_[k]].val = 0.0;
    }
  } else {
    for (std::size_t k = old.u_begin; k < old.u_end; ++k) u_[k].val = 0.0;
  }
  for (int l = link_head_[r]; l >= 0; l = links_[l].next) u_[links_[l].k].val = 0.0;
  link_head_[r] = -1;
  steps_[s].kind = Kind::kRetired;
  etas_.push_back({r, eta_begin, r_.size()});

  // Append the step at the end of the pivot order, its U column the spike.
  const int t = static_cast<int>(steps_.size());
  const std::size_t u_begin = u_.size();
  for (int i = 0; i < m_; ++i) {
    if (i == r || spike[i] == 0.0) continue;
    links_.push_back({t, link_head_[i], u_.size()});
    link_head_[i] = static_cast<int>(links_.size()) - 1;
    u_.push_back({i, spike[i]});
  }
  steps_.push_back({r, position, diag, 0, 0, u_begin, u_.size(), Kind::kSpike});
  step_of_col_[position] = t;
  return true;
}

}  // namespace tcr
