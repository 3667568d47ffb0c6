// Property tests: the sparse Markowitz LU must agree with the dense oracle
// on random sparse invertible systems of varying size and density, detect
// singularity, and survive permutation-like (network-basis-shaped) matrices.
// Random +-1 bases with dense rows drive entries to cancel exactly and fill
// back in, the path on which the factorization reuses a cancelled slot.
// Forrest–Tomlin update sequences must keep agreeing with the dense oracle
// of the explicitly updated basis. Bases with 150 dense coupling rows reach
// the dense tail; its solves, updates on its factors, its singular verdict
// (alone and through the simplex's basis repair) and the edges of the
// switch rule are checked through the `lin.lu.dense_tails` counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "tcr/lin/dense_lu.hpp"
#include "tcr/lin/sparse_lu.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

struct RandomSystem {
  SparseMatrix a;
  DenseMatrix dense;
  std::vector<int> basis;
};

RandomSystem random_system(Rng& rng, int m, double density) {
  DenseMatrix dense(m, m);
  std::vector<Triplet> trips;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      if (i == j || rng.uniform() < density) {
        double v = rng.uniform(-2, 2);
        if (i == j) v += (v >= 0 ? 3.0 : -3.0);  // keep it comfortably nonsingular
        trips.push_back({i, j, v});
        dense(i, j) += v;
      }
    }
  }
  RandomSystem sys{SparseMatrix(m, m, trips), std::move(dense), {}};
  sys.basis.resize(m);
  for (int j = 0; j < m; ++j) sys.basis[j] = j;
  return sys;
}

TEST(SparseLU, MatchesDenseOracleAcrossSizes) {
  Rng rng(2024);
  for (int m : {1, 2, 3, 8, 25, 60, 150}) {
    for (double density : {0.05, 0.2, 0.6}) {
      auto sys = random_system(rng, m, density);
      DenseLU oracle;
      ASSERT_TRUE(oracle.factor(sys.dense));
      SparseLU lu;
      ASSERT_TRUE(lu.factor(sys.a, sys.basis)) << "m=" << m << " density=" << density;

      std::vector<double> b(m);
      for (auto& v : b) v = rng.uniform(-1, 1);
      std::vector<double> x;
      lu.solve(b, x);
      const auto x_ref = oracle.solve(b);
      for (int i = 0; i < m; ++i)
        ASSERT_NEAR(x[i], x_ref[i], 1e-7) << "m=" << m << " density=" << density;

      std::vector<double> c(m);
      for (auto& v : c) v = rng.uniform(-1, 1);
      std::vector<double> y;
      lu.solve_transpose(c, y);
      const auto y_ref = oracle.solve_transpose(c);
      for (int i = 0; i < m; ++i)
        ASSERT_NEAR(y[i], y_ref[i], 1e-7) << "m=" << m << " density=" << density;
    }
  }
}

// A random m x m basis with +-1 entries, shaped like a simplex basis of the
// design LPs: the first m - dense rows are network rows, where column j has
// +1 at row j and usually -1 at another network row; every column also has a
// +-1 in each dense row with probability one half, and a few carry a tiny
// entry. The last `dense` columns span the dense rows.
RandomSystem random_pm1_system(Rng& rng, int m, int dense) {
  const int n = m - dense;
  DenseMatrix mat(m, m);
  std::vector<Triplet> trips;
  auto add = [&](int i, int j, double v) {
    trips.push_back({i, j, v});
    mat(i, j) += v;
  };
  auto sign = [&] { return rng.uniform() < 0.5 ? 1.0 : -1.0; };
  for (int j = 0; j < m; ++j) {
    const int head = j < n ? j : static_cast<int>(rng.below(n));
    add(head, j, 1.0);
    if (rng.uniform() < 0.7) {
      add((head + 1 + static_cast<int>(rng.below(n - 1))) % n, j, -1.0);
    }
    for (int d = 0; d < dense; ++d)
      if (rng.uniform() < 0.5) add(n + d, j, sign());
    // Now and then an entry below the LU's drop tolerance: it stays live
    // until its row is first eliminated.
    if (rng.uniform() < 0.05) add(static_cast<int>(rng.below(m)), j, 1e-13);
  }
  RandomSystem sys{SparseMatrix(m, m, trips), std::move(mat), {}};
  sys.basis.resize(m);
  for (int j = 0; j < m; ++j) sys.basis[j] = j;
  return sys;
}

// Numerical rank of the given columns of `a` (Gaussian elimination with
// partial pivoting).
int column_rank(const DenseMatrix& a, const std::vector<int>& cols) {
  const int m = a.rows();
  std::vector<std::vector<double>> c;
  for (int j : cols) {
    c.emplace_back(m);
    for (int i = 0; i < m; ++i) c.back()[i] = a(i, j);
  }
  int rank = 0;
  for (int i = 0; i < m && rank < static_cast<int>(c.size()); ++i) {
    int best = rank;
    for (int k = rank; k < static_cast<int>(c.size()); ++k)
      if (std::abs(c[k][i]) > std::abs(c[best][i])) best = k;
    if (std::abs(c[best][i]) < 1e-9) continue;
    std::swap(c[rank], c[best]);
    for (int k = rank + 1; k < static_cast<int>(c.size()); ++k) {
      const double f = c[k][i] / c[rank][i];
      for (int r = i; r < m; ++r) c[k][r] -= f * c[rank][r];
    }
    ++rank;
  }
  return rank;
}

// Exact cancellation is common in +-1 bases; the factorization must reuse
// the slot of a cancelled entry that fills back in, and agree with the dense
// oracle (solves, singularity and deficient positions) while doing so.
TEST(SparseLU, ExactCancellationAndRefillAgreeWithDenseOracle) {
  auto& reuses = obs::Registry::instance().counter("lin.lu.slot_reuses");
  const auto reuses0 = reuses.value();
  Rng rng(99);
  int nonsingular = 0, singular = 0;
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a over every solve's bits
  auto fold = [&](const std::vector<double>& v) {
    for (double d : v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      digest = (digest ^ bits) * 1099511628211ull;
    }
  };
  for (int trial = 0; trial < 80; ++trial) {
    const int m = std::vector<int>{12, 40, 120, 300}[trial % 4];
    const int dense = 2 + trial % 5;
    const auto sys = random_pm1_system(rng, m, dense);
    std::vector<int> all(m);
    for (int j = 0; j < m; ++j) all[j] = j;
    const int rank = column_rank(sys.dense, all);

    SparseLU lu;
    const bool ok = lu.factor(sys.a, sys.basis);
    ASSERT_EQ(ok, rank == m) << "trial " << trial << ": rank " << rank << " of " << m;
    if (!ok) {
      ++singular;
      // The positions that received a pivot are independent and span the
      // matrix's column space.
      const auto& def = lu.deficient_positions();
      ASSERT_TRUE(std::is_sorted(def.begin(), def.end())) << "trial " << trial;
      ASSERT_EQ(static_cast<int>(def.size()), m - rank) << "trial " << trial;
      std::vector<int> pivoted;
      for (int j = 0; j < m; ++j)
        if (!std::binary_search(def.begin(), def.end(), j)) pivoted.push_back(j);
      EXPECT_EQ(column_rank(sys.dense, pivoted), rank) << "trial " << trial;
      // A unit column of each row left without a pivot, in place of the
      // deficient positions, makes the matrix nonsingular.
      const auto& rows = lu.deficient_rows();
      ASSERT_EQ(rows.size(), def.size()) << "trial " << trial;
      DenseMatrix repaired = sys.dense;
      for (std::size_t k = 0; k < def.size(); ++k)
        for (int i = 0; i < m; ++i) repaired(i, def[k]) = i == rows[k] ? 1.0 : 0.0;
      EXPECT_EQ(column_rank(repaired, all), m) << "trial " << trial;
      continue;
    }
    ++nonsingular;
    DenseLU oracle;
    ASSERT_TRUE(oracle.factor(sys.dense)) << "trial " << trial;
    std::vector<double> b(m), c(m), x, y;
    for (auto& v : b) v = rng.uniform(-1, 1);
    for (auto& v : c) v = rng.uniform(-1, 1);
    lu.solve(b, x);
    lu.solve_transpose(c, y);
    fold(x);
    fold(y);
    const auto x_ref = oracle.solve(b);
    const auto y_ref = oracle.solve_transpose(c);
    for (int i = 0; i < m; ++i) {
      ASSERT_NEAR(x[i], x_ref[i], 1e-8 * (1 + std::abs(x_ref[i]))) << "trial " << trial;
      ASSERT_NEAR(y[i], y_ref[i], 1e-8 * (1 + std::abs(y_ref[i]))) << "trial " << trial;
    }
  }
  // Every bit of every solve, pinned: recorded from the search-based
  // factorization the linked one replaced, so it pins the pivot order and
  // the order of every L column and U row. A change that alters the pivot
  // order on purpose re-records it.
  EXPECT_EQ(digest, 0x4d0e07d83c803800ull) << std::hex << digest;
  EXPECT_GE(nonsingular, 20);
  EXPECT_GE(singular, 5);
  // Cancelled entries really do fill back in while their slot is still
  // listed: this is the path the test exists for.
  EXPECT_GE(reuses.value() - reuses0, 100);
}

// An entry below the drop tolerance (1e-12) stays live (counted, gathered)
// until its row is first eliminated, and is dropped there. Row 0 =
// [1, 1e-13, 1] is eliminated by the pivot in row 1 = [2, 0, 0], which drops
// its tiny entry; column 1 then holds row 2 alone, so its pivot eliminates
// nothing: 3 pivots + 1 L + 1 U entry. Had the tiny entry stayed, that pivot
// would add a multiplier to L.
TEST(SparseLU, TinyEntryLeavesAtItsRowsFirstElimination) {
  const std::vector<Triplet> trips = {{0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 1e-13},
                                      {2, 1, 1.0}, {0, 2, 1.0}, {2, 2, 1.0}};
  const SparseMatrix a(3, 3, trips);
  SparseLU lu;
  ASSERT_TRUE(lu.factor(a, {0, 1, 2}));
  EXPECT_EQ(lu.factor_nnz(), 5u);
  std::vector<double> x;
  lu.solve({2.0, 2.0, 3.0}, x);  // x = (1, 2, 1 - 2e-13)
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
  EXPECT_NEAR(x[2], 1.0, 1e-9);
}

TEST(SparseLU, ColumnSubsetBasis) {
  // Factor a basis that picks a subset of a wider matrix's columns.
  Rng rng(5);
  const int m = 20, n = 45;
  std::vector<Triplet> trips;
  for (int j = 0; j < n; ++j) {
    // Slack-like columns for j < m guarantee an invertible subset exists.
    if (j < m) trips.push_back({j, j, (j % 2) ? 1.0 : -1.0});
    for (int k = 0; k < 3; ++k) {
      trips.push_back({static_cast<int>(rng.below(m)), j, rng.uniform(-1, 1)});
    }
  }
  SparseMatrix a(m, n, trips);
  std::vector<int> basis(m);
  for (int j = 0; j < m; ++j) basis[j] = j;

  DenseMatrix dense(m, m);
  for (int j = 0; j < m; ++j)
    for (auto k = a.col_begin(j); k < a.col_end(j); ++k) dense(a.row_index(k), j) += a.value(k);
  DenseLU oracle;
  ASSERT_TRUE(oracle.factor(dense));

  SparseLU lu;
  ASSERT_TRUE(lu.factor(a, basis));
  std::vector<double> b(m);
  for (auto& v : b) v = rng.uniform(-3, 3);
  std::vector<double> x;
  lu.solve(b, x);
  const auto x_ref = oracle.solve(b);
  for (int i = 0; i < m; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);
}

TEST(SparseLU, PermutationMatrix) {
  Rng rng(13);
  const int m = 30;
  const auto perm = rng.permutation(m);
  std::vector<Triplet> trips;
  for (int j = 0; j < m; ++j) trips.push_back({perm[j], j, 1.0});
  SparseMatrix a(m, m, trips);
  std::vector<int> basis(m);
  for (int j = 0; j < m; ++j) basis[j] = j;
  SparseLU lu;
  ASSERT_TRUE(lu.factor(a, basis));
  std::vector<double> b(m);
  for (int i = 0; i < m; ++i) b[i] = i;
  std::vector<double> x;
  lu.solve(b, x);
  for (int j = 0; j < m; ++j) EXPECT_NEAR(x[j], b[perm[j]], 1e-12);
}

TEST(SparseLU, DetectsSingular) {
  // Two identical columns.
  std::vector<Triplet> trips = {{0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 1.0}, {1, 1, 2.0}};
  SparseMatrix a(2, 2, trips);
  SparseLU lu;
  EXPECT_FALSE(lu.factor(a, {0, 1}));
  EXPECT_FALSE(lu.deficient_positions().empty());
}

TEST(SparseLU, EmptyColumnIsSingular) {
  std::vector<Triplet> trips = {{0, 0, 1.0}, {1, 1, 1.0}};
  SparseMatrix a(3, 3, trips);
  SparseLU lu;
  EXPECT_FALSE(lu.factor(a, {0, 1, 2}));
}

TEST(SparseLU, DuplicatedRowsAreSingular) {
  // Row 2 duplicates row 0, so the matrix has rank 2 < 3. The factorization
  // must report failure instead of dividing by a vanishing pivot.
  std::vector<Triplet> trips = {{0, 0, 1.0}, {0, 1, 2.0}, {0, 2, -1.0},
                                {1, 0, 3.0}, {1, 1, 1.0}, {1, 2, 4.0},
                                {2, 0, 1.0}, {2, 1, 2.0}, {2, 2, -1.0}};
  SparseMatrix a(3, 3, trips);
  SparseLU lu;
  EXPECT_FALSE(lu.factor(a, {0, 1, 2}));
  EXPECT_FALSE(lu.deficient_positions().empty());
}

TEST(SparseLU, ZeroMatrixIsSingular) {
  SparseMatrix a(4, 4, {});
  SparseLU lu;
  EXPECT_FALSE(lu.factor(a, {0, 1, 2, 3}));
  EXPECT_EQ(lu.deficient_positions().size(), 4u);
}

TEST(SparseLU, NearSingularSolvesStayFinite) {
  // Columns differ by ~1e-11: numerically awful but not rank-deficient to
  // working precision. Whatever factor() decides, a success must never leak
  // NaN/Inf out of solve().
  std::vector<Triplet> trips = {{0, 0, 1.0}, {1, 0, 1.0},
                                {0, 1, 1.0}, {1, 1, 1.0 + 1e-11}};
  SparseMatrix a(2, 2, trips);
  SparseLU lu;
  if (lu.factor(a, {0, 1})) {
    std::vector<double> x;
    lu.solve({1.0, 2.0}, x);
    for (double v : x) EXPECT_TRUE(std::isfinite(v)) << v;
    std::vector<double> y;
    lu.solve_transpose({1.0, -1.0}, y);
    for (double v : y) EXPECT_TRUE(std::isfinite(v)) << v;
  } else {
    EXPECT_FALSE(lu.deficient_positions().empty());
  }
}

TEST(SparseLU, RecoversAfterSingularFactor) {
  // A failed factorization must not poison the object: factoring a good
  // matrix afterwards works and solves correctly.
  std::vector<Triplet> bad = {{0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 2.0}, {1, 1, 4.0}};
  SparseMatrix singular(2, 2, bad);
  SparseLU lu;
  ASSERT_FALSE(lu.factor(singular, {0, 1}));

  std::vector<Triplet> good = {{0, 0, 2.0}, {1, 1, 5.0}};
  SparseMatrix diag(2, 2, good);
  ASSERT_TRUE(lu.factor(diag, {0, 1}));
  EXPECT_TRUE(lu.deficient_positions().empty());
  std::vector<double> x;
  lu.solve({4.0, 10.0}, x);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLU, RankOneUpdateShapedColumnsDetected) {
  // a_ij = u_i * v_j is rank one for any size; every factorization attempt
  // past the first pivot must flag the remaining positions as deficient.
  const int m = 6;
  std::vector<double> u{1, -2, 3, 0.5, -1.5, 2.5};
  std::vector<double> v{2, 1, -1, 3, 0.25, -0.75};
  std::vector<Triplet> trips;
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j) trips.push_back({i, j, u[i] * v[j]});
  SparseMatrix a(m, m, trips);
  std::vector<int> basis(m);
  for (int j = 0; j < m; ++j) basis[j] = j;
  SparseLU lu;
  EXPECT_FALSE(lu.factor(a, basis));
  EXPECT_GE(lu.deficient_positions().size(), static_cast<std::size_t>(m - 1));
}

TEST(SparseLU, IdentityRoundTrip) {
  std::vector<Triplet> trips;
  const int m = 10;
  for (int j = 0; j < m; ++j) trips.push_back({j, j, 1.0});
  SparseMatrix a(m, m, trips);
  std::vector<int> basis(m);
  for (int j = 0; j < m; ++j) basis[j] = j;
  SparseLU lu;
  ASSERT_TRUE(lu.factor(a, basis));
  EXPECT_EQ(lu.factor_nnz(), static_cast<std::size_t>(m));
  std::vector<double> b{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<double> x;
  lu.solve(b, x);
  for (int i = 0; i < m; ++i) EXPECT_DOUBLE_EQ(x[i], b[i]);
  std::vector<double> y;
  lu.solve_transpose(b, y);
  for (int i = 0; i < m; ++i) EXPECT_DOUBLE_EQ(y[i], b[i]);
}

// ---- Forrest–Tomlin updates ---------------------------------------------

// Dense copy of the basis columns of `a`.
DenseMatrix basis_matrix(const SparseMatrix& a, const std::vector<int>& basis) {
  const int m = a.rows();
  DenseMatrix b(m, m);
  for (int j = 0; j < m; ++j)
    for (auto k = a.col_begin(basis[j]); k < a.col_end(basis[j]); ++k)
      b(a.row_index(k), j) += a.value(k);
  return b;
}

// An m x (m + extra) matrix: the identity, then `extra` random columns,
// either real-valued (density per entry) or +-1 network-shaped like
// random_pm1_system's (a +1/-1 pair plus +-1s in the last `dense` rows).
SparseMatrix update_pool(Rng& rng, int m, int extra, bool pm1, double density, int dense) {
  std::vector<Triplet> trips;
  for (int i = 0; i < m; ++i) trips.push_back({i, i, 1.0});
  const int n = m - dense;
  for (int c = 0; c < extra; ++c) {
    const int j = m + c;
    if (pm1) {
      const int head = static_cast<int>(rng.below(n));
      trips.push_back({head, j, 1.0});
      if (rng.uniform() < 0.7)
        trips.push_back({(head + 1 + static_cast<int>(rng.below(n - 1))) % n, j, -1.0});
      for (int d = 0; d < dense; ++d)
        if (rng.uniform() < 0.5) trips.push_back({n + d, j, rng.uniform() < 0.5 ? 1.0 : -1.0});
    } else {
      for (int i = 0; i < m; ++i)
        if (rng.uniform() < density) trips.push_back({i, j, rng.uniform(-2, 2)});
    }
  }
  return SparseMatrix(m, m + extra, trips);
}

// Simplex-like update sequences from a slack basis: an entering column, a
// leaving position among those with a large pivot, update(), and after
// every update a solve and a transposed solve checked against DenseLU of
// the explicitly updated basis. Also checks the determinant identity the
// simplex relies on: the new diagonal is the old one times the pivot.
TEST(SparseLU, UpdateSequencesMatchDenseOracle) {
  Rng rng(1972);
  struct Case {
    int m;
    bool pm1;
    double density;
    int dense;
  };
  int total_updates = 0;
  for (const Case& cs : {Case{30, false, 0.1, 0}, Case{80, false, 0.04, 0},
                         Case{60, true, 0.0, 3}, Case{150, true, 0.0, 4}}) {
    const int m = cs.m;
    const SparseMatrix a = update_pool(rng, m, 3 * m, cs.pm1, cs.density, cs.dense);
    std::vector<int> basis(m);
    for (int j = 0; j < m; ++j) basis[j] = j;
    std::vector<char> in_basis(a.cols(), 0);
    for (int j : basis) in_basis[j] = 1;
    SparseLU lu;
    ASSERT_TRUE(lu.factor(a, basis));

    std::vector<double> col, x, spike, work, b(m), c(m), y;
    int updates = 0;
    for (int attempt = 0; updates < 220 && attempt < 5000; ++attempt) {
      const int q = static_cast<int>(rng.below(a.cols()));
      if (in_basis[q]) continue;
      col.assign(m, 0.0);
      a.add_column_to(q, 1.0, col);
      lu.solve(col, x, work, &spike);
      double xmax = 0.0;
      for (double v : x) xmax = std::max(xmax, std::abs(v));
      if (xmax < 1e-9) continue;
      std::vector<int> candidates;
      for (int p = 0; p < m; ++p)
        if (std::abs(x[p]) >= 0.5 * xmax) candidates.push_back(p);
      const int p = candidates[rng.below(candidates.size())];
      const double want = x[p] * lu.diagonal(p);
      ASSERT_TRUE(lu.update(p, spike)) << "m=" << m << " update " << updates;
      EXPECT_NEAR(lu.diagonal(p), want, 1e-9 * std::abs(want));
      in_basis[basis[p]] = 0;
      in_basis[q] = 1;
      basis[p] = q;
      ++updates;
      EXPECT_EQ(lu.updates(), updates);

      DenseLU oracle;
      ASSERT_TRUE(oracle.factor(basis_matrix(a, basis))) << "m=" << m;
      for (auto& v : b) v = rng.uniform(-1, 1);
      for (auto& v : c) v = rng.uniform(-1, 1);
      lu.solve(b, x, work);
      lu.solve_transpose(c, y, work);
      const auto x_ref = oracle.solve(b);
      const auto y_ref = oracle.solve_transpose(c);
      for (int i = 0; i < m; ++i) {
        ASSERT_NEAR(x[i], x_ref[i], 1e-7 * (1 + std::abs(x_ref[i])))
            << "m=" << m << " update " << updates << " i=" << i;
        ASSERT_NEAR(y[i], y_ref[i], 1e-7 * (1 + std::abs(y_ref[i])))
            << "m=" << m << " update " << updates << " i=" << i;
      }
    }
    EXPECT_GE(updates, 200) << "m=" << m;
    total_updates += updates;
  }
  EXPECT_GE(total_updates, 800);
}

// An entering column in the span of the other basis columns would make the
// basis singular: update() says so and leaves the factors as they were, so
// every solve after it is bit-identical to one before it.
TEST(SparseLU, SingularUpdateIsReportedAndNotApplied) {
  Rng rng(31);
  const int m = 40;
  const SparseMatrix pool = update_pool(rng, m, 2 * m, false, 0.08, 0);
  std::vector<int> basis(m);
  for (int j = 0; j < m; ++j) basis[j] = j;
  SparseLU lu;
  ASSERT_TRUE(lu.factor(pool, basis));
  // A few regular updates first, so the factors carry row etas and spikes.
  std::vector<double> col, x, spike, work;
  for (int q = m; q < m + 10; ++q) {
    col.assign(m, 0.0);
    pool.add_column_to(q, 1.0, col);
    lu.solve(col, x, work, &spike);
    int p = 0;
    for (int i = 1; i < m; ++i)
      if (std::abs(x[i]) > std::abs(x[p])) p = i;
    ASSERT_TRUE(lu.update(p, spike));
    basis[p] = q;
  }
  const DenseMatrix bmat = basis_matrix(pool, basis);
  std::vector<double> b(m), c(m);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto& v : c) v = rng.uniform(-1, 1);
  std::vector<double> x0, y0;
  lu.solve(b, x0, work);
  lu.solve_transpose(c, y0, work);
  const std::size_t nnz0 = lu.factor_nnz();

  // B (e_3 - 2 e_7 + 0.5 e_11): a combination of the columns at positions
  // 3, 7 and 11, so replacing any other position leaves a singular basis.
  col.assign(m, 0.0);
  for (const auto& [pos, w] : {std::pair{3, 1.0}, std::pair{7, -2.0}, std::pair{11, 0.5}})
    for (int i = 0; i < m; ++i) col[i] += w * bmat(i, pos);
  lu.solve(col, x, work, &spike);
  EXPECT_NEAR(x[3], 1.0, 1e-12);
  EXPECT_NEAR(x[20], 0.0, 1e-12);
  EXPECT_FALSE(lu.update(20, spike));
  // The zero column is in every span.
  EXPECT_FALSE(lu.update(5, std::vector<double>(m, 0.0)));

  EXPECT_EQ(lu.factor_nnz(), nnz0);
  EXPECT_EQ(lu.updates(), 10);
  std::vector<double> x1, y1;
  lu.solve(b, x1, work);
  lu.solve_transpose(c, y1, work);
  EXPECT_EQ(x1, x0);
  EXPECT_EQ(y1, y0);
  // Position 3 can still take it: that basis stays nonsingular.
  EXPECT_TRUE(lu.update(3, spike));
}

// Sparse bases, dense entering columns: every spike is dense, so the fill
// guard fires within a few updates; sparse spikes stay well under it.
TEST(SparseLU, FillGuardFiresOnDenseSpikes) {
  Rng rng(8);
  const int m = 100;
  const SparseMatrix dense_pool = update_pool(rng, m, 20, false, 1.0, 0);
  const SparseMatrix sparse_pool = update_pool(rng, m, 20, false, 0.02, 0);
  for (const bool dense : {true, false}) {
    const SparseMatrix& a = dense ? dense_pool : sparse_pool;
    std::vector<int> basis(m);
    for (int j = 0; j < m; ++j) basis[j] = j;
    SparseLU lu;
    ASSERT_TRUE(lu.factor(a, basis));
    EXPECT_EQ(lu.update_nnz(), 0u);
    EXPECT_FALSE(lu.fill_exceeded());
    std::vector<double> col, x, spike, work;
    std::vector<char> used(m, 0);
    int fired_at = -1;
    for (int q = m; q < m + 20 && fired_at < 0; ++q) {
      col.assign(m, 0.0);
      a.add_column_to(q, 1.0, col);
      lu.solve(col, x, work, &spike);
      int p = -1;
      for (int i = 0; i < m; ++i)
        if (!used[i] && x[i] != 0.0 && (p < 0 || std::abs(x[i]) > std::abs(x[p]))) p = i;
      if (p < 0) continue;
      ASSERT_TRUE(lu.update(p, spike));
      used[p] = 1;
      EXPECT_GT(lu.update_nnz(), 0u);
      if (lu.fill_exceeded()) fired_at = lu.updates();
    }
    if (dense) {
      EXPECT_GT(fired_at, 0);
      EXPECT_LE(fired_at, 3);
    } else {
      EXPECT_LT(fired_at, 0);
    }
  }
}

// ---- Dense tail -------------------------------------------------------------

std::int64_t dense_tails() {
  return obs::Registry::instance().counter("lin.lu.dense_tails").value();
}
obs::Histogram& dense_tail_rows() {
  return obs::Registry::instance().histogram("lin.lu.dense_tail_rows", 1.0, 2.0);
}

// `sys` with the given columns appended after its m columns: a pool for
// update sequences and dependent columns. The basis stays positions 0..m-1.
RandomSystem with_columns(const RandomSystem& sys, const std::vector<std::vector<Triplet>>& extra) {
  const int m = sys.a.rows();
  std::vector<Triplet> trips;
  for (int j = 0; j < m; ++j)
    for (auto k = sys.a.col_begin(j); k < sys.a.col_end(j); ++k)
      trips.push_back({sys.a.row_index(k), j, sys.a.value(k)});
  for (std::size_t c = 0; c < extra.size(); ++c)
    for (Triplet t : extra[c]) trips.push_back({t.row, m + static_cast<int>(c), t.value});
  return {SparseMatrix(m, m + static_cast<int>(extra.size()), trips), sys.dense, sys.basis};
}

// The entries of column j of `a` as triplets, scaled by w.
std::vector<Triplet> column_of(const SparseMatrix& a, int j, double w = 1.0) {
  std::vector<Triplet> col;
  for (auto k = a.col_begin(j); k < a.col_end(j); ++k)
    col.push_back({a.row_index(k), 0, w * a.value(k)});
  return col;
}

void expect_solves_match(const SparseLU& lu, const DenseMatrix& b, Rng& rng, const char* what) {
  const int m = b.rows();
  DenseLU oracle;
  ASSERT_TRUE(oracle.factor(b)) << what;
  std::vector<double> rhs(m), c(m), x, y;
  for (auto& v : rhs) v = rng.uniform(-1, 1);
  for (auto& v : c) v = rng.uniform(-1, 1);
  lu.solve(rhs, x);
  lu.solve_transpose(c, y);
  const auto x_ref = oracle.solve(rhs);
  const auto y_ref = oracle.solve_transpose(c);
  for (int i = 0; i < m; ++i) {
    ASSERT_NEAR(x[i], x_ref[i], 1e-8 * (1 + std::abs(x_ref[i]))) << what << " i=" << i;
    ASSERT_NEAR(y[i], y_ref[i], 1e-8 * (1 + std::abs(y_ref[i]))) << what << " i=" << i;
  }
}

// LP-shaped bases with 150 dense coupling rows (random_pm1_system's shape,
// 1e-13 entries included): the network rows eliminate sparsely, and the
// coupling rows leave a block of well over 100 rows, about half full, which
// factor() finishes densely. Solves agree with the dense oracle.
TEST(SparseLU, DenseTailAgreesWithDenseOracle) {
  Rng rng(1990);
  auto& rows = dense_tail_rows();
  for (const int m : {260, 300, 360}) {
    const auto sys = random_pm1_system(rng, m, 150);
    const auto tails0 = dense_tails();
    const auto count0 = rows.count();
    const double sum0 = rows.sum();
    SparseLU lu;
    ASSERT_TRUE(lu.factor(sys.a, sys.basis)) << "m=" << m;
    EXPECT_EQ(dense_tails() - tails0, 1) << "m=" << m;
    EXPECT_EQ(rows.count() - count0, 1) << "m=" << m;
    EXPECT_GE(rows.sum() - sum0, 100.0) << "m=" << m;  // the block's rows
    expect_solves_match(lu, sys.dense, rng, "pm1");
  }
}

// Forrest–Tomlin updates on top of a dense tail's factors: 50 entering
// columns of the basis's own shape, each update checked against the dense
// oracle of the updated basis.
TEST(SparseLU, UpdatesAfterDenseTailMatchDenseOracle) {
  Rng rng(51);
  const int m = 300, kDense = 150, n = m - kDense;
  const auto base = random_pm1_system(rng, m, kDense);
  std::vector<std::vector<Triplet>> extra(4 * m);
  for (auto& col : extra) {
    const int head = static_cast<int>(rng.below(n));
    col.push_back({head, 0, 1.0});
    if (rng.uniform() < 0.7)
      col.push_back({(head + 1 + static_cast<int>(rng.below(n - 1))) % n, 0, -1.0});
    for (int d = 0; d < kDense; ++d)
      if (rng.uniform() < 0.5) col.push_back({n + d, 0, rng.uniform() < 0.5 ? 1.0 : -1.0});
  }
  const RandomSystem sys = with_columns(base, extra);
  std::vector<int> basis = sys.basis;
  std::vector<char> in_basis(sys.a.cols(), 0);
  for (int j : basis) in_basis[j] = 1;
  const auto tails0 = dense_tails();
  SparseLU lu;
  ASSERT_TRUE(lu.factor(sys.a, basis));
  ASSERT_EQ(dense_tails() - tails0, 1);

  std::vector<double> col, x, spike, work;
  int updates = 0;
  for (int attempt = 0; updates < 50 && attempt < 1000; ++attempt) {
    const int q = m + static_cast<int>(rng.below(extra.size()));
    if (in_basis[q]) continue;
    col.assign(m, 0.0);
    sys.a.add_column_to(q, 1.0, col);
    lu.solve(col, x, work, &spike);
    double xmax = 0.0;
    for (double v : x) xmax = std::max(xmax, std::abs(v));
    std::vector<int> candidates;
    for (int p = 0; p < m; ++p)
      if (std::abs(x[p]) >= 0.5 * xmax) candidates.push_back(p);
    const int p = candidates[rng.below(candidates.size())];
    const double want = x[p] * lu.diagonal(p);
    ASSERT_TRUE(lu.update(p, spike)) << "update " << updates;
    EXPECT_NEAR(lu.diagonal(p), want, 1e-9 * std::abs(want));
    in_basis[basis[p]] = 0;
    in_basis[q] = 1;
    basis[p] = q;
    ++updates;
    expect_solves_match(lu, basis_matrix(sys.a, basis), rng, "after update");
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(updates, 50);
}

// Columns in the span of others make the dense block rank-deficient: the
// block defers exactly the columns it cannot pivot, factor() fails with
// those as deficient_positions(), and the pivoted positions are independent.
// Here position p1 = col a + col b and position p2 = col a - 2 col c, with
// a, b, c coupling columns before them, so the ascending-order block
// elimination defers p1 and p2 and nothing else.
TEST(SparseLU, RankDeficientDenseTailReportsDeferredPositions) {
  Rng rng(7);
  const int m = 300, kDense = 150, n = m - kDense;
  const auto base = random_pm1_system(rng, m, kDense);
  const int a = n + 3, b = n + 10, c = n + 20, p1 = n + 60, p2 = m - 1;
  std::vector<Triplet> dep1 = column_of(base.a, a), dep2 = column_of(base.a, a);
  for (Triplet t : column_of(base.a, b)) dep1.push_back(t);
  for (Triplet t : column_of(base.a, c, -2.0)) dep2.push_back(t);
  const RandomSystem sys = with_columns(base, {dep1, dep2});
  std::vector<int> basis = sys.basis;
  basis[p1] = m;
  basis[p2] = m + 1;
  const DenseMatrix bmat = basis_matrix(sys.a, basis);
  std::vector<int> all(m);
  for (int j = 0; j < m; ++j) all[j] = j;
  ASSERT_EQ(column_rank(bmat, all), m - 2);

  const auto tails0 = dense_tails();
  SparseLU lu;
  EXPECT_FALSE(lu.factor(sys.a, basis));
  EXPECT_EQ(dense_tails() - tails0, 1);
  EXPECT_EQ(lu.deficient_positions(), (std::vector<int>{p1, p2}));
  std::vector<int> pivoted;
  for (int j = 0; j < m; ++j)
    if (j != p1 && j != p2) pivoted.push_back(j);
  EXPECT_EQ(column_rank(bmat, pivoted), m - 2);
  ASSERT_EQ(lu.deficient_rows().size(), 2u);
  DenseMatrix repaired = bmat;
  for (int k = 0; k < 2; ++k) {
    const int p = k == 0 ? p1 : p2;
    for (int i = 0; i < m; ++i) repaired(i, p) = i == lu.deficient_rows()[k] ? 1.0 : 0.0;
  }
  EXPECT_EQ(column_rank(repaired, all), m);  // the rows the dense tail left

  // The same object factors the original, nonsingular basis afterwards.
  basis[p1] = p1;
  basis[p2] = p2;
  ASSERT_TRUE(lu.factor(sys.a, basis));
  expect_solves_match(lu, basis_matrix(sys.a, basis), rng, "repaired");
}

// The same through the simplex: a warm basis whose dense block is
// rank-deficient is patched at the deficient position and still reaches
// the cold optimum. The LP is max c'x over 160 dense <= rows with positive
// coefficients; column 159 is column 0 plus column 1, and the warm basis
// holds columns 0..159. The right-hand side makes the patched basis (row
// 159's slack in place of column 159) primal feasible, so the adoption
// counts as repaired.
TEST(SparseLU, RankDeficientDenseTailIsRepairedBySimplex) {
  Rng rng(160);
  const int rows = 160;
  std::vector<std::vector<std::pair<int, double>>> cols(rows + 1);
  for (int j = 0; j <= rows; ++j) {
    if (j == rows - 1) continue;
    for (int i = 0; i < rows; ++i)
      if (rng.uniform() < 0.7) cols[j].push_back({i, rng.uniform(0.1, 2.0)});
  }
  cols[rows - 1] = cols[0];
  for (auto [i, v] : cols[1]) cols[rows - 1].push_back({i, v});
  lp::Model model;
  model.set_sense(lp::Sense::Maximize);
  for (int j = 0; j <= rows; ++j) model.add_col(0.0, lp::kInf, rng.uniform(0.5, 1.5));
  std::vector<double> rhs(rows, 0.0);
  rhs[rows - 1] = 1.0;
  for (int j = 0; j < rows - 1; ++j) {
    const double x = rng.uniform(0.5, 1.0);
    for (auto [i, v] : cols[j]) rhs[i] += v * x;
  }
  for (int i = 0; i < rows; ++i) model.add_row(lp::RowType::LE, rhs[i]);
  for (int j = 0; j <= rows; ++j)
    for (auto [i, v] : cols[j]) model.add_term(i, j, v);

  // The basis matrix alone: the dense tail defers exactly position 159.
  std::vector<Triplet> trips;
  for (int j = 0; j < rows; ++j)
    for (auto [i, v] : cols[j]) trips.push_back({i, j, v});
  std::vector<int> basis(rows);
  for (int j = 0; j < rows; ++j) basis[j] = j;
  auto tails0 = dense_tails();
  SparseLU lu;
  EXPECT_FALSE(lu.factor(SparseMatrix(rows, rows, trips), basis));
  EXPECT_EQ(dense_tails() - tails0, 1);
  EXPECT_EQ(lu.deficient_positions(), std::vector<int>{rows - 1});

  const lp::SimplexOptions opt;
  const lp::Solution cold = lp::solve(model, opt);
  ASSERT_EQ(cold.status, lp::Status::Optimal);
  lp::Basis warm;
  warm.stat.assign(cold.basis.stat.size(), 1);  // at lower bound
  warm.basic = basis;
  for (int j : basis) warm.stat[static_cast<std::size_t>(j)] = 0;  // basic
  auto& reg = obs::Registry::instance();
  const auto repaired0 = reg.counter("lp.warmstart.repaired").value();
  const auto rejected0 = reg.counter("lp.warmstart.rejected").value();
  tails0 = dense_tails();
  const lp::Solution ws = lp::solve(model, opt, &warm);
  EXPECT_GE(dense_tails() - tails0, 1);
  EXPECT_EQ(reg.counter("lp.warmstart.repaired").value() - repaired0, 1);
  EXPECT_EQ(reg.counter("lp.warmstart.rejected").value() - rejected0, 0);
  ASSERT_EQ(ws.status, lp::Status::Optimal);
  EXPECT_NEAR(ws.objective, cold.objective, 1e-7 * (1 + std::abs(cold.objective)));
  EXPECT_TRUE(ws.certificate.ok()) << ws.certificate.summary();
}

// The switch rule's edges: a fully dense 99 x 99 block is below the size,
// and a 100 x 100 block with 5,000 nonzeros (exactly half) switches but one
// with 4,999 does not — after one more step fewer than 100 rows remain.
// With 20 singleton rows and columns beside the block, the switch comes
// after the 20 steps that pivot them, so the count must drop by each
// retired row.
TEST(SparseLU, DenseTailSwitchEdges) {
  Rng rng(100);
  // An m x m matrix: a `block`-row block with `nnz` nonzeros (its diagonal
  // and random off-diagonal places), then m - block singletons.
  auto system = [&](int block, int nnz, int m) {
    DenseMatrix dense(m, m);
    std::vector<Triplet> trips;
    for (int i = 0; i < m; ++i) {
      const double v = rng.uniform(-2, 2);
      trips.push_back({i, i, v + (v >= 0 ? 3.0 : -3.0)});
    }
    const auto off = rng.permutation(block * (block - 1));
    for (int k = 0; k < nnz - block; ++k) {
      const int i = off[k] / (block - 1), r = off[k] % (block - 1);
      trips.push_back({i, r < i ? r : r + 1, rng.uniform(-1, 1)});
    }
    for (const Triplet& t : trips) dense(t.row, t.col) = t.value;
    RandomSystem sys{SparseMatrix(m, m, trips), std::move(dense), {}};
    for (int j = 0; j < m; ++j) sys.basis.push_back(j);
    return sys;
  };
  auto& rows = dense_tail_rows();
  struct Case {
    int block, nnz, m;
    bool switches;
  };
  for (const Case& cs : {Case{99, 99 * 99, 99, false}, Case{100, 4999, 100, false},
                         Case{100, 5000, 100, true}, Case{100, 4999, 120, false},
                         Case{100, 5000, 120, true}}) {
    const auto sys = system(cs.block, cs.nnz, cs.m);
    ASSERT_EQ(sys.a.nnz(), static_cast<std::size_t>(cs.nnz + cs.m - cs.block));
    const auto tails0 = dense_tails();
    const auto count0 = rows.count();
    const double sum0 = rows.sum();
    SparseLU lu;
    ASSERT_TRUE(lu.factor(sys.a, sys.basis));
    EXPECT_EQ(dense_tails() - tails0, cs.switches ? 1 : 0)
        << "block " << cs.block << " nnz " << cs.nnz << " m " << cs.m;
    EXPECT_EQ(rows.count() - count0, cs.switches ? 1 : 0);
    EXPECT_EQ(rows.sum() - sum0, cs.switches ? 100.0 : 0.0);
    expect_solves_match(lu, sys.dense, rng, "edge");
  }
}

}  // namespace
}  // namespace tcr
