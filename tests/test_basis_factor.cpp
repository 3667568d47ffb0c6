// lp::BasisFactor: the simplex's basis factor and its refactorization
// policy, driven directly. Chains of replace() calls on random bases must
// keep every solve in agreement with a dense LU of the explicit basis,
// rebuilding whenever replace() asks; a rebuild is asked for after exactly
// refactor_every updates; a pivot in [1e-9, 1e-7) — which the dual ratio
// test's 1e-9 candidate filter lets through — is refused without touching
// the factors; and an injected update drift trips the determinant check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "tcr/fault/fault.hpp"
#include "tcr/lin/dense_lu.hpp"
#include "tcr/lp/basis_factor.hpp"
#include "tcr/util/rng.hpp"

namespace tcr::lp {
namespace {

// An m x n matrix whose first m columns form a comfortably nonsingular
// basis (a strong diagonal under random entries of the given density) and
// whose other columns are random candidates to enter.
SparseMatrix random_pool(Rng& rng, int m, int n, double density) {
  std::vector<Triplet> trips;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      if (i == j || rng.uniform() < density) {
        double v = rng.uniform(-2, 2);
        if (i == j) v += v >= 0 ? 3.0 : -3.0;
        trips.push_back({i, j, v});
      }
    }
  }
  return SparseMatrix(m, n, trips);
}

DenseMatrix basis_matrix(const SparseMatrix& a, const std::vector<int>& basis) {
  const int m = a.rows();
  DenseMatrix b(m, m);
  for (int j = 0; j < m; ++j)
    for (auto k = a.col_begin(basis[j]); k < a.col_end(basis[j]); ++k)
      b(a.row_index(k), j) += a.value(k);
  return b;
}

std::vector<double> random_vector(Rng& rng, int m) {
  std::vector<double> v(static_cast<std::size_t>(m));
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

// FTRAN and BTRAN of random right-hand sides against a dense LU of `basis`.
void expect_solves_match(BasisFactor& f, const SparseMatrix& a, const std::vector<int>& basis,
                         Rng& rng) {
  const int m = a.rows();
  DenseLU oracle;
  ASSERT_TRUE(oracle.factor(basis_matrix(a, basis)));
  const auto b = random_vector(rng, m);
  const auto c = random_vector(rng, m);
  std::vector<double> x, y;
  f.ftran(b, x);
  f.btran(c, y);
  const auto x_ref = oracle.solve(b);
  const auto y_ref = oracle.solve_transpose(c);
  for (int i = 0; i < m; ++i) {
    ASSERT_NEAR(x[i], x_ref[i], 1e-7 * (1 + std::abs(x_ref[i]))) << "i=" << i;
    ASSERT_NEAR(y[i], y_ref[i], 1e-7 * (1 + std::abs(y_ref[i]))) << "i=" << i;
  }
}

// A simplex-like entering step: FTRAN a random nonbasic column and pick a
// leaving position with a large pivot. False when the column is nearly
// zero in every position.
bool pick_pivot(BasisFactor& f, const SparseMatrix& a, const std::vector<char>& in_basis,
                Rng& rng, int& q, int& r, std::vector<double>& w) {
  q = static_cast<int>(rng.below(a.cols()));
  if (in_basis[q]) return false;
  f.ftran_entering(q, w);
  double wmax = 0.0;
  for (double v : w) wmax = std::max(wmax, std::abs(v));
  if (wmax < 1e-6) return false;
  std::vector<int> candidates;
  for (int p = 0; p < a.rows(); ++p)
    if (std::abs(w[p]) >= 0.5 * wmax) candidates.push_back(p);
  r = candidates[rng.below(candidates.size())];
  return true;
}

TEST(BasisFactor, ReplaceChainsMatchDenseOracle) {
  Rng rng(2403);
  int replaced = 0, rebuilt = 0;
  for (const int m : {12, 40, 90}) {
    for (const double density : {0.05, 0.2}) {
      const SparseMatrix a = random_pool(rng, m, 3 * m, density);
      std::vector<int> basis(m);
      for (int j = 0; j < m; ++j) basis[j] = j;
      std::vector<char> in_basis(a.cols(), 0);
      for (int j : basis) in_basis[j] = 1;
      BasisFactor f(a, 20);
      ASSERT_TRUE(f.refactor(basis));
      ASSERT_TRUE(f.fresh());
      std::vector<double> w;
      for (int pivots = 0, attempt = 0; pivots < 120 && attempt < 5000; ++attempt) {
        int q = 0, r = 0;
        if (!pick_pivot(f, a, in_basis, rng, q, r, w)) continue;
        in_basis[basis[r]] = 0;
        in_basis[q] = 1;
        basis[r] = q;
        ++pivots;
        if (f.replace(r, w[r])) {
          ++replaced;
          EXPECT_FALSE(f.fresh());
        } else {
          ++rebuilt;
          ASSERT_TRUE(f.refactor(basis)) << "m=" << m << " pivot " << pivots;
          EXPECT_TRUE(f.fresh());
        }
        expect_solves_match(f, a, basis, rng);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(replaced, 400);
  EXPECT_GT(rebuilt, 20);
}

// A dense starting basis keeps the fill guard quiet, so the only trigger
// that can fire is the update count.
TEST(BasisFactor, RebuildIsRequestedAfterExactlyRefactorEveryUpdates) {
  Rng rng(50);
  const int m = 20;
  const SparseMatrix a = random_pool(rng, m, 4 * m, 0.6);
  for (const int every : {1, 2, 5}) {
    std::vector<int> basis(m);
    for (int j = 0; j < m; ++j) basis[j] = j;
    std::vector<char> in_basis(a.cols(), 0);
    for (int j : basis) in_basis[j] = 1;
    BasisFactor f(a, every);
    ASSERT_TRUE(f.refactor(basis));
    std::vector<double> w;
    for (int k = 1, attempt = 0; k <= every && attempt < 1000; ++attempt) {
      int q = 0, r = 0;
      if (!pick_pivot(f, a, in_basis, rng, q, r, w)) continue;
      in_basis[basis[r]] = 0;
      in_basis[q] = 1;
      basis[r] = q;
      EXPECT_EQ(f.replace(r, w[r]), k < every) << "every=" << every << " update " << k;
      EXPECT_EQ(f.updates(), k) << "every=" << every;
      ++k;
    }
    EXPECT_EQ(f.updates(), every);
    ASSERT_TRUE(f.refactor(basis));
    EXPECT_EQ(f.updates(), 0);
    expect_solves_match(f, a, basis, rng);
  }
}

// The dual loop takes candidates with |alpha| > 1e-9, but replace() trusts
// no pivot below 1e-7 to an update: it asks for a rebuild and leaves the
// factors exactly as they were. A pivot of 2e-7 is updated.
TEST(BasisFactor, PivotBelowTheAlarmIsRefusedAndLeavesFactorsUntouched) {
  // Identity basis; column 6 doubles position 0; columns 7 and 8 reach
  // position 2 with a pivot of 5e-8 and 2e-7 (and position 3 with 1).
  const int m = 6;
  std::vector<Triplet> trips;
  for (int i = 0; i < m; ++i) trips.push_back({i, i, 1.0});
  trips.push_back({0, 6, 2.0});
  trips.push_back({2, 7, 5e-8});
  trips.push_back({3, 7, 1.0});
  trips.push_back({2, 8, 2e-7});
  trips.push_back({3, 8, 1.0});
  const SparseMatrix a(m, 9, trips);
  std::vector<int> basis = {0, 1, 2, 3, 4, 5};
  BasisFactor f(a, 50);
  ASSERT_TRUE(f.refactor(basis));
  std::vector<double> w;
  f.ftran_entering(6, w);
  ASSERT_TRUE(f.replace(0, w[0]));
  basis[0] = 6;
  ASSERT_EQ(f.updates(), 1);

  Rng rng(7);
  const auto b = random_vector(rng, m);
  const auto c = random_vector(rng, m);
  std::vector<double> x0, y0, x1, y1;
  f.ftran(b, x0);
  f.btran(c, y0);

  f.ftran_entering(7, w);
  ASSERT_GE(std::abs(w[2]), 1e-9);
  ASSERT_LT(std::abs(w[2]), 1e-7);
  EXPECT_FALSE(f.replace(2, w[2]));
  EXPECT_EQ(f.updates(), 1);
  f.ftran(b, x1);
  f.btran(c, y1);
  EXPECT_EQ(x1, x0);  // bit for bit
  EXPECT_EQ(y1, y0);

  f.ftran_entering(8, w);
  ASSERT_GE(std::abs(w[2]), 1e-7);
  EXPECT_TRUE(f.replace(2, w[2]));
  EXPECT_EQ(f.updates(), 2);
  basis[2] = 8;
  expect_solves_match(f, a, basis, rng);
}

// An injected drift of the new U diagonal (fault::SimplexHooks::eta_drift)
// beyond 1e-9 relative makes the determinant check ask for a rebuild; a
// drift below it passes.
TEST(BasisFactor, EtaDriftTripsTheDeterminantCheck) {
  Rng rng(1993);
  const int m = 30;
  const SparseMatrix a = random_pool(rng, m, 3 * m, 0.1);
  std::vector<int> basis(m);
  for (int j = 0; j < m; ++j) basis[j] = j;
  std::vector<char> in_basis(a.cols(), 0);
  for (int j : basis) in_basis[j] = 1;
  BasisFactor f(a, 50);
  ASSERT_TRUE(f.refactor(basis));

  fault::ScopedSimplexFaults faults;
  auto& h = faults.hooks();
  std::vector<double> w;
  for (const double drift : {1e-12, 1e-6}) {
    h.eta_drift = drift;
    h.drift_etas = 1;
    const long injected = h.eta_drifts_injected.load();
    int q = 0, r = 0;
    for (int attempt = 0; !pick_pivot(f, a, in_basis, rng, q, r, w); ++attempt)
      ASSERT_LT(attempt, 1000);
    in_basis[basis[r]] = 0;
    in_basis[q] = 1;
    basis[r] = q;
    EXPECT_EQ(f.replace(r, w[r]), drift < 1e-9) << "drift " << drift;
    EXPECT_EQ(h.eta_drifts_injected.load(), injected + 1);
  }
  // The drifted update was applied before the check refused it; a rebuild
  // restores exact factors.
  ASSERT_TRUE(f.refactor(basis));
  expect_solves_match(f, a, basis, rng);
}

}  // namespace
}  // namespace tcr::lp
