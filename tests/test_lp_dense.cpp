// The dense simplex is the oracle for the production solver, so it gets its
// own battery of hand-checkable LPs: textbook problems, bounds, equality
// rows, infeasible / unbounded cases, maximization, and degenerate corners.
#include <gtest/gtest.h>

#include "tcr/lp/dense_simplex.hpp"

namespace tcr::lp {
namespace {

TEST(DenseSimplex, TextbookMaximize) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
  Model m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(0, kInf, 3);
  const int y = m.add_col(0, kInf, 5);
  m.add_row(RowType::LE, 4, {{x, 1.0}});
  m.add_row(RowType::LE, 12, {{y, 2.0}});
  m.add_row(RowType::LE, 18, {{x, 3.0}, {y, 2.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 6.0, 1e-9);
}

TEST(DenseSimplex, MinimizeWithEqualityAndGe) {
  // min x + 2y st x + y = 10, x - y >= 2, x,y >= 0 -> x=10? check: y = 10-x,
  // x - (10-x) >= 2 -> x >= 6. obj = x + 2(10-x) = 20 - x minimized at x=10
  // -> wait minimize: 20 - x is minimized by x max = 10, y=0, obj=10.
  Model m;
  const int x = m.add_col(0, kInf, 1);
  const int y = m.add_col(0, kInf, 2);
  m.add_row(RowType::EQ, 10, {{x, 1.0}, {y, 1.0}});
  m.add_row(RowType::GE, 2, {{x, 1.0}, {y, -1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 10.0, 1e-9);
}

TEST(DenseSimplex, BoxedVariablesAndBoundFlips) {
  // min -x - y with 1 <= x <= 3, 0 <= y <= 2, x + y <= 4 -> x=3? x+y<=4:
  // best x=3,y=1 obj=-4 (or x=2,y=2). Optimal value -4.
  Model m;
  const int x = m.add_col(1, 3, -1);
  const int y = m.add_col(0, 2, -1);
  m.add_row(RowType::LE, 4, {{x, 1.0}, {y, 1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-9);
  EXPECT_NEAR(sol.x[x] + sol.x[y], 4.0, 1e-9);
}

TEST(DenseSimplex, FreeVariable) {
  // min x st x >= -5 via row (x free), i.e. x + 0 >= -5.
  Model m;
  const int x = m.add_col(-kInf, kInf, 1);
  m.add_row(RowType::GE, -5, {{x, 1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, -5.0, 1e-9);
}

TEST(DenseSimplex, Infeasible) {
  Model m;
  const int x = m.add_col(0, kInf, 1);
  m.add_row(RowType::LE, 1, {{x, 1.0}});
  m.add_row(RowType::GE, 2, {{x, 1.0}});
  EXPECT_EQ(solve_dense(m).status, Status::Infeasible);
}

TEST(DenseSimplex, InfeasibleEquality) {
  Model m;
  const int x = m.add_col(0, 1, 0);
  const int y = m.add_col(0, 1, 0);
  m.add_row(RowType::EQ, 5, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve_dense(m).status, Status::Infeasible);
}

TEST(DenseSimplex, Unbounded) {
  Model m;
  const int x = m.add_col(0, kInf, -1);
  const int y = m.add_col(0, kInf, 0);
  m.add_row(RowType::GE, 1, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve_dense(m).status, Status::Unbounded);
}

TEST(DenseSimplex, DegenerateVertex) {
  // Multiple constraints active at the optimum; Bland must not cycle.
  Model m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(0, kInf, 1);
  const int y = m.add_col(0, kInf, 1);
  m.add_row(RowType::LE, 1, {{x, 1.0}});
  m.add_row(RowType::LE, 1, {{y, 1.0}});
  m.add_row(RowType::LE, 2, {{x, 1.0}, {y, 1.0}});
  m.add_row(RowType::LE, 2, {{x, 2.0}, {y, 1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  // Binding set at the optimum (x=0.5, y=1) is degenerate-adjacent; value 1.5.
  EXPECT_NEAR(sol.objective, 1.5, 1e-9);
}

TEST(DenseSimplex, DegenerateVertexValue) {
  Model m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(0, kInf, 1);
  const int y = m.add_col(0, kInf, 1);
  m.add_row(RowType::LE, 1, {{y, 1.0}});
  m.add_row(RowType::LE, 2, {{x, 2.0}, {y, 1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 1.5, 1e-9);
}

TEST(DenseSimplex, TransportationProblem) {
  // 2 suppliers (10, 20), 2 demands (15, 15); costs [[1,3],[2,1]].
  // Optimal: s0->d0:10, s1->d0:5, s1->d1:15 -> 10*1 + 5*2 + 15*1 = 35.
  Model m;
  std::vector<int> x;
  const double cost[2][2] = {{1, 3}, {2, 1}};
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) x.push_back(m.add_col(0, kInf, cost[i][j]));
  m.add_row(RowType::LE, 10, {{x[0], 1.0}, {x[1], 1.0}});
  m.add_row(RowType::LE, 20, {{x[2], 1.0}, {x[3], 1.0}});
  m.add_row(RowType::GE, 15, {{x[0], 1.0}, {x[2], 1.0}});
  m.add_row(RowType::GE, 15, {{x[1], 1.0}, {x[3], 1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 35.0, 1e-9);
}

TEST(DenseSimplex, DualsSatisfyStrongDuality) {
  Model m;
  const int x = m.add_col(0, kInf, 2);
  const int y = m.add_col(0, kInf, 3);
  m.add_row(RowType::GE, 4, {{x, 1.0}, {y, 2.0}});
  m.add_row(RowType::GE, 3, {{x, 1.0}, {y, 1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  // b'y should equal the primal objective.
  EXPECT_NEAR(4 * sol.duals[0] + 3 * sol.duals[1], sol.objective, 1e-8);
  // Reduced costs of a minimize problem at optimum: d_j >= 0 for x_j at lower.
  for (int j = 0; j < 2; ++j) {
    if (sol.x[j] < 1e-9) {
      EXPECT_GE(sol.reduced[j], -1e-8);
    }
  }
}

TEST(DenseSimplex, FixedVariable) {
  Model m;
  const int x = m.add_col(2, 2, 5);
  const int y = m.add_col(0, kInf, 1);
  m.add_row(RowType::GE, 5, {{x, 1.0}, {y, 1.0}});
  const auto sol = solve_dense(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-10);
  EXPECT_NEAR(sol.x[y], 3.0, 1e-10);
  EXPECT_NEAR(sol.objective, 13.0, 1e-9);
}

}  // namespace
}  // namespace tcr::lp
