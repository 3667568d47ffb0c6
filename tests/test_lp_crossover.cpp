// A crash basis from a feasible point (tcr/lp/crossover.hpp). On random
// small LPs whose known feasible point lies strictly inside most bounds —
// more such columns than rows, so it is not a vertex, some columns
// duplicated so that the crossover must move along null directions, and
// some inequalities that the start point violates while x leaves their
// slack off zero — the basis must be adopted as primal-feasible (no phase 1) and
// the solve must reach the dense oracle's optimum. With more such columns
// than rows, every trial moves the point. Infeasible points must yield no
// basis.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tcr/lp/crossover.hpp"
#include "tcr/lp/dense_simplex.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/lp/standard_form.hpp"
#include "tcr/util/rng.hpp"

namespace tcr::lp {
namespace {

struct PointLp {
  Model model;
  std::vector<double> x;  // feasible, strictly inside most bounds
  int violated_rows = 0;  // inequalities the start point violates
};

// Columns: most in [0, up] with x inside, some free (cost 0, so the LP
// stays bounded), some in [0, inf) with a cost that cannot run away, and a
// few copies of earlier columns; every column's start value is zero. Rows
// are EQ, or inequalities. Most inequalities take the sign of their
// activity at x, LE above it or GE below it, so the start point satisfies
// them; a third of those are tight at x. The others put the rhs strictly
// between 0 and the activity at x, so the start point violates them (their
// logical starts out of bounds) and their slack is nonzero at x.
PointLp random_point_lp(Rng& rng, int m, int n) {
  PointLp lp;
  const bool maximize = rng.below(3) == 0;
  lp.model.set_sense(maximize ? Sense::Maximize : Sense::Minimize);
  std::vector<std::vector<std::pair<int, double>>> col_entries;
  for (int j = 0; j < n; ++j) {
    const int kind = static_cast<int>(rng.below(6));
    double cost = rng.uniform(-3.0, 3.0);
    if (kind == 0) {
      lp.model.add_col(-kInf, kInf, 0.0);
      lp.x.push_back(rng.uniform(-2.0, 2.0));
    } else if (kind == 1) {
      cost = maximize ? -std::abs(cost) : std::abs(cost);
      lp.model.add_col(0.0, kInf, cost);
      lp.x.push_back(rng.uniform(0.2, 3.0));
    } else {
      const double up = rng.uniform(1.0, 4.0);
      lp.model.add_col(0.0, up, cost);
      lp.x.push_back(up * rng.uniform(0.1, 0.9));
    }
  }
  std::vector<std::vector<std::pair<int, double>>> rows(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const int len = 2 + static_cast<int>(rng.below(4));
    for (int t = 0; t < len; ++t) {
      const int j = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const double v = static_cast<double>(1 + rng.below(3)) * (rng.below(2) ? 1.0 : -1.0);
      rows[i].push_back({j, v});
    }
  }
  // Duplicate a few columns into the last ones: linearly dependent pairs.
  for (int c = 0; c < n / 4; ++c) {
    const int src = static_cast<int>(rng.below(static_cast<std::uint64_t>(n / 2)));
    const int dst = n - 1 - c;
    for (auto& row : rows) {
      double coeff = 0.0;
      for (const auto& [j, v] : row) coeff += (j == src) ? v : 0.0;
      std::erase_if(row, [dst](const auto& e) { return e.first == dst; });
      if (coeff != 0.0) row.push_back({dst, coeff});
    }
  }
  for (const auto& row : rows) {
    double act = 0.0;
    for (const auto& [j, v] : row) act += v * lp.x[j];
    const double slack = rng.below(3) == 0 ? 0.0 : rng.uniform(0.1, 2.0);
    const int kind = static_cast<int>(rng.below(5));
    if (kind == 0) {
      lp.model.add_row(RowType::EQ, act, row);
    } else if (kind == 1 && act != 0.0) {
      lp.model.add_row(act > 0.0 ? RowType::GE : RowType::LE, act * rng.uniform(0.2, 0.8), row);
      ++lp.violated_rows;
    } else if (act >= 0.0) {
      lp.model.add_row(RowType::LE, act + slack, row);
    } else {
      lp.model.add_row(RowType::GE, act - slack, row);
    }
  }
  return lp;
}

TEST(Crossover, RandomPointsReachTheOracleOptimumWithoutPhase1) {
  Rng rng(2026);
  int solved = 0, far = 0, with_violated = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int m = 3 + static_cast<int>(rng.below(10));
    const int n = m + 2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m + 5)));
    const PointLp lp = random_point_lp(rng, m, n);
    ASSERT_LE(lp.model.max_violation(lp.x), 1e-9);
    with_violated += lp.violated_rows > 0;

    const Basis crash = crash_from_point(lp.model, lp.x);
    ASSERT_EQ(static_cast<int>(crash.basic.size()), m);
    bool at_upper = false;
    for (int j = 0; j < n; ++j) at_upper |= crash.stat[j] == detail::kAtUpper;
    far += at_upper;
    const Solution sol = solve(lp.model, {}, &crash);
    const Solution oracle = solve_dense(lp.model);
    ASSERT_EQ(sol.status, oracle.status) << sol.note;
    EXPECT_EQ(sol.warm_start, "accepted");
    EXPECT_EQ(sol.phase1_iterations, 0);
    if (oracle.status != Status::Optimal) continue;
    EXPECT_NEAR(sol.objective, oracle.objective, 1e-7 * (1 + std::abs(oracle.objective)));
    EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();
    ++solved;
  }
  EXPECT_GE(solved, 50);
  EXPECT_GE(far, 5);  // some columns stop at the bound farther from zero
  EXPECT_GE(with_violated, 30);
}

// Two copies of one column, both strictly inside their bounds: they cannot
// both be basic, so the crossover moves one to its bound. The vertex it
// reaches must reproduce a feasible point and lead to the optimum.
TEST(Crossover, DependentColumnsMoveToABound) {
  Model m;
  const int a = m.add_col(0.0, 4.0, -1.0);
  const int b = m.add_col(0.0, 4.0, -2.0);
  m.add_row(RowType::LE, 3.0, {{a, 1.0}, {b, 1.0}});
  const Basis crash = crash_from_point(m, {1.0, 2.0});
  ASSERT_EQ(crash.basic.size(), 1u);
  // The improving move shifts load onto b until the row is tight or a hits
  // zero; b ends basic.
  EXPECT_EQ(crash.basic[0], b);
  const Solution sol = solve(m, {}, &crash);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.warm_start, "accepted");
  EXPECT_NEAR(sol.objective, -6.0, 1e-9);
}

TEST(Crossover, InfeasiblePointsYieldNoHints) {
  Model m;
  const int a = m.add_col(0.0, 1.0, 1.0);
  const int b = m.add_col(-kInf, kInf, 0.0);
  m.add_row(RowType::EQ, 1.0, {{a, 1.0}, {b, 1.0}});
  m.add_row(RowType::LE, 2.0, {{a, 1.0}, {b, -1.0}});
  EXPECT_FALSE(crash_from_point(m, {0.5, 0.5}).empty());
  EXPECT_TRUE(crash_from_point(m, {1.5, -0.5}).empty());  // bound
  EXPECT_TRUE(crash_from_point(m, {0.5, 0.6}).empty());   // equality row
  EXPECT_TRUE(crash_from_point(m, {1.0, -1.5}).empty());  // both rows
  EXPECT_TRUE(crash_from_point(m, {0.5}).empty());        // wrong size
}

}  // namespace
}  // namespace tcr::lp
