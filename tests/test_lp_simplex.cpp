// The production sparse revised simplex is validated three ways:
//  * same hand-checkable LPs as the oracle,
//  * randomized property sweep — objective must match the dense oracle and
//    the returned point must be feasible with complementary optimality,
//  * structured MCF-like models (the shape the routing designs produce).
// The solver carries its reduced costs across pivots between
// refactorizations; the oracle sweep runs with prices carried through every
// pivot and in Bland mode too, and a Figure 1 sweep pins the carried prices
// against fresh ones directly. Two k=4 sweeps pin the whole pivot path
// (iteration and refactorization counts and every result bit), and their
// bases check the row-wise pivot row against the column pass.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

#include "tcr/core/tradeoff.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/lin/dense_matrix.hpp"
#include "tcr/lin/sparse.hpp"
#include "tcr/lin/sparse_lu.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/lp/dense_simplex.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/lp/standard_form.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/util/rng.hpp"

namespace tcr::lp {
namespace {

Model random_model(Rng& rng, int rows, int cols) {
  Model m;
  m.set_sense(rng.uniform() < 0.5 ? Sense::Minimize : Sense::Maximize);
  for (int j = 0; j < cols; ++j) {
    const double r = rng.uniform();
    double lo = 0.0, up = kInf;
    if (r < 0.2) {
      lo = -kInf;  // free
    } else if (r < 0.4) {
      up = rng.uniform(0.5, 4.0);  // boxed
    } else if (r < 0.5) {
      lo = rng.uniform(-2.0, 0.0);
      up = lo + rng.uniform(0.0, 3.0);
    }
    m.add_col(lo, up, rng.uniform(-3, 3));
  }
  for (int i = 0; i < rows; ++i) {
    const double r = rng.uniform();
    const RowType type = r < 0.4 ? RowType::LE : (r < 0.7 ? RowType::GE : RowType::EQ);
    const int row = m.add_row(type, rng.uniform(-4, 4));
    int terms = 0;
    for (int j = 0; j < cols; ++j) {
      if (rng.uniform() < 0.45) {
        m.add_term(row, j, rng.uniform(-2, 2));
        ++terms;
      }
    }
    if (terms == 0) m.add_term(row, static_cast<int>(rng.below(cols)), 1.0);
  }
  // Bound the feasible set so unboundedness is rare but still exercised.
  if (rng.uniform() < 0.8) {
    const int row = m.add_row(RowType::LE, rng.uniform(10, 30));
    for (int j = 0; j < cols; ++j) m.add_term(row, j, 1.0);
    const int row2 = m.add_row(RowType::GE, rng.uniform(-30, -10));
    for (int j = 0; j < cols; ++j) m.add_term(row2, j, 1.0);
  }
  return m;
}

// Solves 120 random LPs with `base` options (seeded per trial) and checks
// each verdict and optimum against the dense oracle.
void expect_agrees_with_oracle(const SimplexOptions& base) {
  Rng rng(777);
  int optimal_seen = 0, infeasible_seen = 0, unbounded_seen = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int rows = 1 + static_cast<int>(rng.below(12));
    const int cols = 1 + static_cast<int>(rng.below(14));
    Model m = random_model(rng, rows, cols);

    const auto ref = solve_dense(m);
    SimplexOptions opt = base;
    opt.seed = 1000 + trial;
    const auto sol = solve(m, opt);

    if (ref.status == Status::Optimal) {
      ++optimal_seen;
      ASSERT_EQ(sol.status, Status::Optimal) << "trial " << trial;
      ASSERT_NEAR(sol.objective, ref.objective, 1e-5 * (1 + std::abs(ref.objective)))
          << "trial " << trial;
      EXPECT_LT(m.max_violation(sol.x), 1e-5) << "trial " << trial;
      // Every accepted solve must carry a passing independent certificate.
      EXPECT_TRUE(sol.certificate.ok())
          << "trial " << trial << ": " << sol.certificate.summary();
    } else if (ref.status == Status::Infeasible) {
      ++infeasible_seen;
      EXPECT_EQ(sol.status, Status::Infeasible) << "trial " << trial;
    } else if (ref.status == Status::Unbounded) {
      ++unbounded_seen;
      EXPECT_EQ(sol.status, Status::Unbounded) << "trial " << trial;
    }
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GT(optimal_seen, 20);
  EXPECT_GT(infeasible_seen, 3);
  EXPECT_GT(optimal_seen + infeasible_seen + unbounded_seen, 100);
  EXPECT_GT(unbounded_seen, 1);
}

TEST(RevisedSimplex, AgreesWithOracleOnRandomLPs) { expect_agrees_with_oracle({}); }

// No solve here takes a million pivots, so only the entry reprice and the
// verdict-confirming refactorizations recompute prices: everything else
// runs on prices carried through every pivot.
TEST(RevisedSimplex, AgreesWithOracleOnPricesCarriedThroughEveryPivot) {
  SimplexOptions opt;
  opt.refactor_every = 1000000;
  expect_agrees_with_oracle(opt);
}

// Bland mode from the first degenerate pivot: the pivot row is still
// computed on every pivot so the carried prices stay valid.
TEST(RevisedSimplex, AgreesWithOracleInBlandMode) {
  SimplexOptions opt;
  opt.bland_after = 1;
  expect_agrees_with_oracle(opt);
}

// refactor_every = 1 reprices from a fresh factorization on every
// iteration, so it is the reference for the carried prices of the default
// cadence: the k=4 Figure 1 sweep must give the same curve either way.
TEST(RevisedSimplex, CarriedPricesMatchPerPivotRepricingOnFigure1Sweep) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 5);
  SimplexOptions every_pivot;
  every_pivot.refactor_every = 1;
  const auto ref = worst_case_tradeoff(torus, grid, every_pivot);
  const auto carried = worst_case_tradeoff(torus, grid);
  ASSERT_EQ(ref.size(), grid.size());
  ASSERT_EQ(carried.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(ref[i].solved()) << "point " << i << ": " << ref[i].note;
    ASSERT_TRUE(carried[i].solved()) << "point " << i << ": " << carried[i].note;
    EXPECT_TRUE(ref[i].certificate.pass) << ref[i].certificate.summary();
    EXPECT_TRUE(carried[i].certificate.pass) << carried[i].certificate.summary();
    EXPECT_NEAR(carried[i].capacity_fraction, ref[i].capacity_fraction, 1e-9) << "point " << i;
  }
}

// lp.simplex.price_drift samples the carried reduced costs against the
// fresh ones at every mid-loop refactorization; on the warm k=4 Figure 1
// sweep they must agree to far below the 1e-7 pricing tolerance.
TEST(RevisedSimplex, CarriedPricesStayCloseToFreshOnes) {
  auto& drift = obs::Registry::instance().histogram("lp.simplex.price_drift", 1e-18, 2.0);
  drift.reset();
  const auto pts = worst_case_tradeoff(Torus(4), locality_grid(1.0, 2.0, 5));
  for (const auto& p : pts) ASSERT_TRUE(p.solved()) << p.note;
  EXPECT_GT(drift.count(), 0);
  EXPECT_LT(drift.max(), 1e-9);
}

TEST(RevisedSimplex, PerturbationOffAlsoAgrees) {
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    Model m = random_model(rng, 8, 10);
    const auto ref = solve_dense(m);
    SimplexOptions opt;
    opt.perturb = false;
    const auto sol = solve(m, opt);
    if (ref.status == Status::Optimal) {
      ASSERT_EQ(sol.status, Status::Optimal) << "trial " << trial;
      ASSERT_NEAR(sol.objective, ref.objective, 1e-5 * (1 + std::abs(ref.objective)));
    }
  }
}

TEST(RevisedSimplex, TextbookProblems) {
  {
    Model m;
    m.set_sense(Sense::Maximize);
    const int x = m.add_col(0, kInf, 3);
    const int y = m.add_col(0, kInf, 5);
    m.add_row(RowType::LE, 4, {{x, 1.0}});
    m.add_row(RowType::LE, 12, {{y, 2.0}});
    m.add_row(RowType::LE, 18, {{x, 3.0}, {y, 2.0}});
    const auto sol = solve(m);
    ASSERT_EQ(sol.status, Status::Optimal);
    EXPECT_NEAR(sol.objective, 36.0, 1e-7);
  }
  {
    Model m;
    const int x = m.add_col(0, kInf, 1);
    m.add_row(RowType::LE, 1, {{x, 1.0}});
    m.add_row(RowType::GE, 2, {{x, 1.0}});
    EXPECT_EQ(solve(m).status, Status::Infeasible);
  }
  {
    Model m;
    const int x = m.add_col(0, kInf, -1);
    m.add_row(RowType::GE, 1, {{x, 1.0}});
    EXPECT_EQ(solve(m).status, Status::Unbounded);
  }
}

TEST(RevisedSimplex, MaxFlowAsLP) {
  // Max flow on a small DAG: s->a (3), s->b (2), a->t (2), b->t (3), a->b (1).
  // Max flow = 4 (2 via a->t, 2 via b: s->b 2 ... plus a->b 0/1: s->a 3
  // limited by a->t 2 + a->b 1 -> 3, b->t limited to 3 total with s->b 2 +
  // a->b 1; total = 2 + 3 = 5? capacities: s out 5, t in 5, a through
  // min(3, 2+1)=3, b through min(2+1, 3)=3 -> max flow = 2(a->t) + 3(b->t)
  // = 5 needs a->b 1 and s->a 3, s->b 2: feasible. So 5.
  Model m;
  m.set_sense(Sense::Maximize);
  const int sa = m.add_col(0, 3, 0);
  const int sb = m.add_col(0, 2, 0);
  const int at = m.add_col(0, 2, 0);
  const int bt = m.add_col(0, 3, 0);
  const int ab = m.add_col(0, 1, 0);
  const int f = m.add_col(0, kInf, 1);  // total flow
  m.add_row(RowType::EQ, 0, {{sa, 1.0}, {sb, 1.0}, {f, -1.0}});
  m.add_row(RowType::EQ, 0, {{sa, 1.0}, {at, -1.0}, {ab, -1.0}});
  m.add_row(RowType::EQ, 0, {{sb, 1.0}, {ab, 1.0}, {bt, -1.0}});
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-7);
}

TEST(RevisedSimplex, HighlyDegenerateAssignment) {
  // Assignment polytope: n x n doubly-stochastic, minimize a cost matrix.
  // Vertices are permutations; the LP is notoriously degenerate.
  const int n = 6;
  Rng rng(99);
  tcr::DenseMatrix cost(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) cost(i, j) = std::floor(rng.uniform(0, 10));
  Model m;
  std::vector<int> var(n * n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) var[i * n + j] = m.add_col(0, kInf, cost(i, j));
  for (int i = 0; i < n; ++i) {
    const int row = m.add_row(RowType::EQ, 1);
    for (int j = 0; j < n; ++j) m.add_term(row, var[i * n + j], 1.0);
  }
  for (int j = 0; j < n; ++j) {
    const int row = m.add_row(RowType::EQ, 1);
    for (int i = 0; i < n; ++i) m.add_term(row, var[i * n + j], 1.0);
  }
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  const auto ref = solve_dense(m);
  ASSERT_EQ(ref.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, ref.objective, 1e-6);
}

TEST(RevisedSimplex, ReducedCostsCertifyOptimality) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    Model m = random_model(rng, 6, 8);
    const auto sol = solve(m);
    if (sol.status != Status::Optimal) continue;
    const double sign = m.sense() == Sense::Maximize ? -1.0 : 1.0;
    for (int j = 0; j < m.num_cols(); ++j) {
      const double d = sign * sol.reduced[j];
      // Interior variables must have (near) zero reduced cost.
      const bool at_lower = std::isfinite(m.lower(j)) && sol.x[j] < m.lower(j) + 1e-7;
      const bool at_upper = std::isfinite(m.upper(j)) && sol.x[j] > m.upper(j) - 1e-7;
      if (!at_lower && !at_upper) {
        EXPECT_NEAR(d, 0.0, 1e-5) << "trial " << trial;
      }
      if (at_lower && !at_upper) {
        EXPECT_GE(d, -1e-5) << "trial " << trial;
      }
      if (at_upper && !at_lower) {
        EXPECT_LE(d, 1e-5) << "trial " << trial;
      }
    }
  }
}

TEST(RevisedSimplex, LargeSparseStructuredProblem) {
  // Chain of flow-balance constraints: min cost path-like structure,
  // several hundred rows to exercise refactorization.
  const int n = 400;
  Model m;
  std::vector<int> x(n);
  Rng rng(55);
  for (int i = 0; i < n; ++i) x[i] = m.add_col(0, 2.0, rng.uniform(0.1, 2.0));
  for (int i = 0; i + 1 < n; ++i) {
    m.add_row(RowType::GE, 0.5, {{x[i], 1.0}, {x[i + 1], 1.0}});
  }
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_LT(m.max_violation(sol.x), 1e-6);
  // Sanity: objective positive and below the trivial upper bound.
  EXPECT_GT(sol.objective, 0.0);
  double trivial = 0.0;
  for (int i = 0; i < n; ++i) trivial += 2.0 * m.cost(i);
  EXPECT_LT(sol.objective, trivial);
}

TEST(RevisedSimplex, KleeMintyCube) {
  // Klee-Minty n=8: max sum 2^(n-j) x_j with x_1 <= 5, 4x_1 + x_2 <= 25, ...
  // Optimum is 5^n at the vertex (0, ..., 0, 5^n). Exponential for naive
  // Dantzig on the unit form; any correct simplex must still solve it.
  const int n = 8;
  Model m;
  m.set_sense(Sense::Maximize);
  std::vector<int> x;
  for (int j = 1; j <= n; ++j) x.push_back(m.add_col(0, kInf, std::pow(2.0, n - j)));
  for (int i = 1; i <= n; ++i) {
    const int row = m.add_row(RowType::LE, std::pow(5.0, i));
    for (int j = 1; j < i; ++j) m.add_term(row, x[j - 1], std::pow(2.0, i - j + 1));
    m.add_term(row, x[i - 1], 1.0);
  }
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, std::pow(5.0, n), 1e-3);
}

TEST(RevisedSimplex, BadlyScaledProblem) {
  // Coefficients spanning 8 orders of magnitude.
  Model m;
  const int x = m.add_col(0, kInf, 1e-4);
  const int y = m.add_col(0, kInf, 1e4);
  m.add_row(RowType::GE, 1e6, {{x, 1e3}, {y, 1e-3}});
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  // Cheapest: x = 1e3, objective 0.1.
  EXPECT_NEAR(sol.objective, 0.1, 1e-6);
}

TEST(RevisedSimplex, ManyFixedVariables) {
  Model m;
  std::vector<int> x;
  double rhs = 0.0;
  for (int j = 0; j < 30; ++j) {
    x.push_back(m.add_col(j % 3, j % 3, 1.0));  // all fixed at 0/1/2
    rhs += j % 3;
  }
  const int free_var = m.add_col(0, kInf, 5.0);
  const int row = m.add_row(RowType::GE, rhs + 4.0);
  for (int j = 0; j < 30; ++j) m.add_term(row, x[j], 1.0);
  m.add_term(row, free_var, 1.0);
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[free_var], 4.0, 1e-7);
}

TEST(RevisedSimplex, EmptyRowsAndColumns) {
  Model m;
  const int x = m.add_col(0, kInf, 1.0);
  m.add_col(-3, 7, 0.0);  // never referenced by a row
  m.add_row(RowType::GE, 2.0, {{x, 1.0}});
  const auto sol = solve(m);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

TEST(RevisedSimplex, CertifierRejectsCorruptedRandomSolutions) {
  // The independent checker must not only bless good solves (above) but
  // reject the same solutions once corrupted — otherwise a passing
  // certificate carries no information.
  Rng rng(4711);
  int rejected = 0;
  for (int trial = 0; trial < 60 && rejected < 15; ++trial) {
    Model m = random_model(rng, 6, 8);
    Solution sol = solve(m);
    if (sol.status != Status::Optimal) continue;
    const int j = static_cast<int>(rng.below(m.num_cols()));
    sol.x[j] += rng.uniform() < 0.5 ? 1.5 : -1.5;
    const Certificate cert = certify(m, sol);
    EXPECT_TRUE(cert.checked);
    if (!cert.pass) ++rejected;
  }
  // A 1.5 shift must be caught essentially always (it breaks feasibility,
  // the objective match, or complementarity at this scale).
  EXPECT_GE(rejected, 15);
}

TEST(RevisedSimplex, IterationLimitExportsReusableBasis) {
  // Audit regression for the iteration-limit path: a budgeted-out solve must
  // (a) say so in a distinct note, (b) still export its best-so-far basis,
  // and (c) that basis must warm-start a continuation solve to the optimum —
  // the property sweeps lean on when a budget cuts a chain mid-point.
  Rng rng(2718);
  int limited = 0;
  for (int trial = 0; trial < 40 && limited < 5; ++trial) {
    Model m = random_model(rng, 10, 14);
    const auto ref = solve_dense(m);
    if (ref.status != Status::Optimal) continue;

    SimplexOptions tight;
    tight.max_iterations = 3;
    const auto cut = solve(m, tight);
    if (cut.status != Status::IterationLimit) continue;  // solved within 3
    ++limited;
    EXPECT_NE(cut.note.find("iteration limit after"), std::string::npos) << cut.note;
    ASSERT_FALSE(cut.basis.stat.empty());
    ASSERT_EQ(cut.basis.basic.size(), static_cast<std::size_t>(m.num_rows()));

    const auto cont = solve(m, SimplexOptions{}, &cut.basis);
    ASSERT_EQ(cont.status, Status::Optimal) << cont.note;
    EXPECT_NEAR(cont.objective, ref.objective, 1e-6 * (1 + std::abs(ref.objective)));
  }
  // The 3-iteration cap must actually bite on most non-trivial models.
  EXPECT_GE(limited, 5);
}

// ---- Pivot-path pin -------------------------------------------------------
// The k=4 Figure 1 warm sweep and a k=4 Figure 6 sweep, reduced to their
// simplex iteration and refactorization counts and the bit pattern of every
// capacity fraction. A change that should not alter any pivot (a faster LU
// that keeps the pivot order, a storage change) must leave all of these
// exactly as recorded. A change that alters the pivot path on purpose
// re-records them from the failure message.
struct PivotPath {
  std::int64_t iterations = 0;
  std::int64_t refactorizations = 0;
  std::vector<std::uint64_t> fraction_bits;
};

template <typename Sweep>
PivotPath record_pivot_path(Sweep sweep) {
  auto& reg = obs::Registry::instance();
  auto& iters = reg.counter("lp.simplex.iterations");
  auto& refactors = reg.counter("lp.simplex.refactorizations");
  const auto iters0 = iters.value();
  const auto refactors0 = refactors.value();
  const std::vector<TradeoffPoint> pts = sweep();
  PivotPath path;
  path.iterations = iters.value() - iters0;
  path.refactorizations = refactors.value() - refactors0;
  for (const auto& p : pts) {
    EXPECT_TRUE(p.solved()) << p.note;
    EXPECT_TRUE(p.certificate.pass) << p.certificate.summary();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p.capacity_fraction, sizeof bits);
    path.fraction_bits.push_back(bits);
  }
  return path;
}

std::string describe(const PivotPath& p) {
  std::ostringstream os;
  os << "{" << p.iterations << ", " << p.refactorizations << ", {";
  for (std::size_t i = 0; i < p.fraction_bits.size(); ++i) {
    os << (i ? ", " : "") << "0x" << std::hex << p.fraction_bits[i] << std::dec << "ull";
  }
  os << "}}";
  return os.str();
}

void expect_pinned(const PivotPath& got, const PivotPath& want) {
  EXPECT_EQ(got.iterations, want.iterations) << "recorded now: " << describe(got);
  EXPECT_EQ(got.refactorizations, want.refactorizations) << "recorded now: " << describe(got);
  EXPECT_EQ(got.fraction_bits, want.fraction_bits) << "recorded now: " << describe(got);
}

TEST(RevisedSimplex, PivotPathPinnedOnFigure1Sweep) {
  const PivotPath got = record_pivot_path(
      [] { return worst_case_tradeoff(Torus(4), locality_grid(1.0, 2.0, 5)); });
  expect_pinned(got, {471, 27,
                      {0x3fd5555555555555ull, 0x3fde1e1e1e1e1e22ull, 0x3fe0000000000000ull,
                       0x3fe0000000000000ull, 0x3fe0000000000000ull}});
}

TEST(RevisedSimplex, PivotPathPinnedOnFigure6Sweep) {
  const Torus torus(4);
  Rng rng(606);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(rng.permutation(torus.num_nodes()));
  const PivotPath got = record_pivot_path(
      [&] { return average_case_tradeoff(torus, samples, locality_grid(1.0, 2.0, 5)); });
  expect_pinned(got, {556, 28,
                      {0x3fdc051832f1fd74ull, 0x3fe28f6716dcdf39ull, 0x3fe3ab1a801c7112ull,
                       0x3fe3ab1a801c7112ull, 0x3fe3ab1a801c7112ull}});
}

// The pivot row alpha_j = a_j . rho the simplex computes row-wise over
// rho's nonzeros (RowProduct) equals the column pass (column_dot) bit for
// bit, on the bases of every point of the k=4 Figure 1 and Figure 6 sweeps
// (warm-started along the locality grid as the sweeps run them), for rho =
// B^-T e_r over a spread of rows r.
TEST(RevisedSimplex, RowwisePivotRowMatchesColumnPassBitForBit) {
  const Torus torus(4);
  Rng rng(606);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(rng.permutation(torus.num_nodes()));
  const std::vector<double> grid = locality_grid(1.0, 2.0, 5);
  const double hmin = torus.mean_min_distance();
  long compared = 0, nonzero = 0;
  for (const DesignObjective objective :
       {DesignObjective::WorstCase, DesignObjective::AverageCase}) {
    SymmetricDesignConfig cfg;
    cfg.objective = objective;
    if (objective == DesignObjective::AverageCase) cfg.samples = samples;
    cfg.locality_equals = grid[0] * hmin;
    cfg.locality_le = true;
    SymmetricArcDesign design(torus, cfg);
    Basis warm;
    for (std::size_t p = 0; p < grid.size(); ++p) {
      if (p > 0) design.set_locality_bound(grid[p] * hmin);
      DesignResult res = design.solve({}, warm.empty() ? nullptr : &warm);
      ASSERT_EQ(res.status, Status::Optimal) << res.note;
      const detail::StandardForm sf = detail::build_standard_form(design.model());
      const SparseMatrix a(sf.m, sf.ntotal, sf.triplets);
      RowProduct rows(a);
      SparseLU lu;
      ASSERT_TRUE(lu.factor(a, res.basis.basic));
      std::vector<double> er(sf.m), rho;
      for (int r = 0; r < sf.m; r += 1 + sf.m / 40) {
        std::fill(er.begin(), er.end(), 0.0);
        er[r] = 1.0;
        lu.solve_transpose(er, rho);
        std::vector<double> alpha(sf.ntotal, 0.0);
        int last = -1;
        rows.for_each(rho, [&](int j, double v) {
          EXPECT_GT(j, last);
          last = j;
          alpha[j] = v;
        });
        for (int j = 0; j < sf.ntotal; ++j) {
          const double col = a.column_dot(j, rho);
          ++compared;
          if (col == 0.0) {
            EXPECT_EQ(alpha[j], 0.0) << "column " << j;
            continue;
          }
          ++nonzero;
          std::uint64_t want = 0, got = 0;
          std::memcpy(&want, &col, sizeof want);
          std::memcpy(&got, &alpha[j], sizeof got);
          ASSERT_EQ(got, want) << "column " << j << " row " << r << " point " << p;
        }
      }
      warm = std::move(res.basis);
    }
  }
  EXPECT_GT(nonzero, 1000);
  EXPECT_LT(nonzero, compared);  // zero entries were checked as well
}

TEST(RevisedSimplex, PopulatesObsMetrics) {
  auto& reg = obs::Registry::instance();
  auto& solves = reg.counter("lp.simplex.solves");
  auto& iters = reg.counter("lp.simplex.iterations");
  auto& refactors = reg.counter("lp.simplex.refactorizations");
  auto& total = reg.timer("lp.simplex.time.total");
  auto& pricing = reg.timer("lp.simplex.time.pricing");
  const auto solves0 = solves.value();
  const auto iters0 = iters.value();
  const auto refactors0 = refactors.value();
  const auto spans0 = total.count();
  const auto pricing0 = pricing.count();

  // A non-trivial LP solved with fine-grained timing on, the way a --json
  // bench sink runs the solver.
  reg.set_timing_enabled(true);
  Rng rng(4242);
  const Model m = random_model(rng, 12, 18);
  const auto sol = solve(m);
  reg.set_timing_enabled(false);

  EXPECT_GE(solves.value(), solves0 + 1);
  EXPECT_GT(iters.value(), iters0);
  EXPECT_GT(refactors.value(), refactors0);
  EXPECT_GT(total.count(), spans0);
  EXPECT_GT(pricing.count(), pricing0);
  if (sol.status != Status::Optimal) {
    EXPECT_FALSE(sol.note.empty());
  }
}

}  // namespace
}  // namespace tcr::lp
