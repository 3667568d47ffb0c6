// Independent certification of LP solutions (lp/certify.hpp): textbook
// problems certify in both senses and every kind of corruption is rejected.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <limits>

#include "tcr/lp/certify.hpp"
#include "tcr/lp/dense_simplex.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/util/rng.hpp"

namespace tcr::lp {
namespace {

// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum 36 at (2, 6).
Model textbook_max() {
  Model m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(0, kInf, 3);
  const int y = m.add_col(0, kInf, 5);
  m.add_row(RowType::LE, 4, {{x, 1.0}});
  m.add_row(RowType::LE, 12, {{y, 2.0}});
  m.add_row(RowType::LE, 18, {{x, 3.0}, {y, 2.0}});
  return m;
}

// min 2x + 3y s.t. x + y >= 4, x + 3y >= 6; optimum 9 at (3, 1).
Model textbook_min() {
  Model m;
  const int x = m.add_col(0, kInf, 2);
  const int y = m.add_col(0, kInf, 3);
  m.add_row(RowType::GE, 4, {{x, 1.0}, {y, 1.0}});
  m.add_row(RowType::GE, 6, {{x, 1.0}, {y, 3.0}});
  return m;
}

TEST(Certify, PassesTextbookBothSenses) {
  for (const Model& m : {textbook_max(), textbook_min()}) {
    const Solution sol = solve(m);
    ASSERT_EQ(sol.status, Status::Optimal);
    const Certificate cert = certify(m, sol);
    EXPECT_TRUE(cert.ok()) << cert.summary();
    EXPECT_LT(cert.worst(), 1e-8);
    EXPECT_TRUE(cert.reason.empty());
  }
}

TEST(Certify, SolverFillsCertificateByDefault) {
  const Model m = textbook_max();
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();

  SimplexOptions off;
  off.certify = false;
  const Solution raw = solve(m, off);
  EXPECT_FALSE(raw.certificate.checked);
}

TEST(Certify, RejectsCorruptedPrimal) {
  const Model m = textbook_max();
  Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  sol.x[0] += 0.5;  // violates 3x + 2y <= 18 and breaks c'x
  const Certificate cert = certify(m, sol);
  EXPECT_TRUE(cert.checked);
  EXPECT_FALSE(cert.pass);
  EXPECT_FALSE(cert.reason.empty());
}

TEST(Certify, RejectsCorruptedDuals) {
  const Model m = textbook_min();
  Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  sol.duals[0] = -sol.duals[0] - 1.0;  // wrong sign for a GE row (min sense)
  const Certificate cert = certify(m, sol);
  EXPECT_FALSE(cert.pass);
}

TEST(Certify, RejectsCorruptedObjective) {
  const Model m = textbook_max();
  Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  sol.objective += 1.0;
  const Certificate cert = certify(m, sol);
  EXPECT_FALSE(cert.pass);
  EXPECT_GT(cert.objective_residual, 1e-3);
}

TEST(Certify, RejectsCorruptedReducedCosts) {
  const Model m = textbook_min();
  Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  sol.reduced[0] += 2.0;  // no longer matches c - A'y
  const Certificate cert = certify(m, sol);
  EXPECT_FALSE(cert.pass);
  EXPECT_GT(cert.dual_residual, 1e-3);
}

TEST(Certify, RejectsNonFiniteAndWrongShape) {
  const Model m = textbook_max();
  {
    Solution sol = solve(m);
    sol.x[1] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(certify(m, sol).pass);
  }
  {
    Solution sol = solve(m);
    sol.duals.pop_back();
    EXPECT_FALSE(certify(m, sol).pass);
  }
}

TEST(Certify, NonOptimalStatusFails) {
  Model m;
  const int x = m.add_col(0, kInf, 1);
  m.add_row(RowType::LE, 1, {{x, 1.0}});
  m.add_row(RowType::GE, 2, {{x, 1.0}});
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, Status::Infeasible);
  const Certificate cert = certify(m, sol);
  EXPECT_TRUE(cert.checked);
  EXPECT_FALSE(cert.pass);
}

TEST(Certify, WorseCertificateOrdering) {
  Certificate unchecked;
  Certificate pass;
  pass.checked = true;
  pass.pass = true;
  pass.primal_residual = 1e-9;
  Certificate fail = pass;
  fail.pass = false;
  fail.primal_residual = 1e-3;
  Certificate worse_fail = fail;
  worse_fail.primal_residual = 1e-1;

  EXPECT_EQ(&worse_certificate(pass, unchecked), &unchecked);
  EXPECT_EQ(&worse_certificate(fail, pass), &fail);
  EXPECT_EQ(&worse_certificate(fail, worse_fail), &worse_fail);
  EXPECT_EQ(&worse_certificate(pass, pass).reason, &pass.reason);  // stable
}

TEST(Certify, TolerancesScaleWithSolverTols) {
  const CertifyOptions loose = CertifyOptions::from_solver_tols(1e-4, 1e-4);
  EXPECT_GE(loose.feas_tol, 1e-3);
  EXPECT_GE(loose.opt_tol, 1e-3);
  // Defaults already dominate very tight solver tolerances.
  const CertifyOptions tight = CertifyOptions::from_solver_tols(1e-12, 1e-12);
  EXPECT_EQ(tight.feas_tol, CertifyOptions{}.feas_tol);
}

TEST(Certify, DenseSolverSolutionsAlsoCertify) {
  Rng rng(2718);
  int certified = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Model m;
    m.set_sense(trial % 2 ? Sense::Maximize : Sense::Minimize);
    const int cols = 2 + static_cast<int>(rng.below(6));
    for (int j = 0; j < cols; ++j) m.add_col(0, rng.uniform(0.5, 4.0), rng.uniform(-3, 3));
    const int rows = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < rows; ++i) {
      const int row = m.add_row(rng.uniform() < 0.5 ? RowType::LE : RowType::GE,
                                rng.uniform(-2, 2));
      for (int j = 0; j < cols; ++j) m.add_term(row, j, rng.uniform(-2, 2));
    }
    const Solution sol = solve_dense(m);
    if (sol.status != Status::Optimal) continue;
    ++certified;
    const Certificate cert = certify(m, sol);
    EXPECT_TRUE(cert.ok()) << "trial " << trial << ": " << cert.summary();
  }
  EXPECT_GT(certified, 5);
}

// A certificate does not depend on the order a row's terms were added in:
// each row sums in column order. At x = (1e16, 1, -1e16) the terms of
// x0 + x1 + x2 sum to 0 in the order 0, 1, 2 and to 1 in the order 0, 2, 1.
TEST(Certify, RowTermOrderLeavesTheCertificateBitIdentical) {
  const auto build = [](std::initializer_list<int> order) {
    Model m;
    for (int j = 0; j < 3; ++j) m.add_col(-kInf, kInf, 1.0);
    const int row = m.add_row(RowType::EQ, 1.0);
    for (const int j : order) m.add_term(row, j, 1.0);
    return m;
  };
  Solution sol;
  sol.status = Status::Optimal;
  sol.objective = 1.0;
  sol.x = {1e16, 1.0, -1e16};
  sol.duals = {1.0};
  sol.reduced = {0.0, 0.0, 0.0};
  const Certificate a = certify(build({0, 1, 2}), sol);
  const Certificate b = certify(build({0, 2, 1}), sol);
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_EQ(a.reason, b.reason);
  for (const auto field :
       {&Certificate::primal_residual, &Certificate::bound_violation,
        &Certificate::objective_residual, &Certificate::dual_residual,
        &Certificate::dual_violation, &Certificate::row_dual_violation,
        &Certificate::complementarity, &Certificate::duality_gap}) {
    EXPECT_EQ(std::memcmp(&(a.*field), &(b.*field), sizeof(double)), 0)
        << a.*field << " vs " << b.*field;
  }
}

}  // namespace
}  // namespace tcr::lp
