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
// bases check the row-wise pivot row against the column pass; after every
// dual pivot of the same sweeps, the dual steepest-edge weights are checked
// against norms from a fresh factorization.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "tcr/lp/pivot_kernels.hpp"
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

// Phase 1 runs from whatever basis the solve holds. Each random LP is
// solved, then every rhs is moved and every cost negated, and the LP is
// solved again from the first solve's basis: its point now violates LE, GE
// and EQ rows alike, it is usually dual infeasible, and some of the edited
// LPs are infeasible. The basis must be adopted, never rejected, and the
// verdict and optimum must match the dense oracle's cold solve.
TEST(RevisedSimplex, PhaseOneFromAnyBasisAgreesWithOracle) {
  Rng rng(4711);
  int optimal_seen = 0, infeasible_seen = 0, phase1_from_basis = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int rows = 1 + static_cast<int>(rng.below(12));
    const int cols = 1 + static_cast<int>(rng.below(14));
    Model m = random_model(rng, rows, cols);
    SimplexOptions opt;
    opt.seed = 3000 + trial;
    const Basis start = solve(m, opt).basis;
    for (int i = 0; i < m.num_rows(); ++i) m.set_rhs(i, m.rhs(i) + rng.uniform(-3, 3));
    for (int j = 0; j < m.num_cols(); ++j) m.set_cost(j, -m.cost(j));

    const auto ref = solve_dense(m);
    const auto sol = solve(m, opt, &start);
    EXPECT_NE(sol.warm_start, "rejected") << "trial " << trial;
    if (sol.phase1_iterations > 0 && sol.dual_iterations == 0) ++phase1_from_basis;
    ASSERT_EQ(sol.status, ref.status) << "trial " << trial << ": " << sol.note;
    if (ref.status == Status::Optimal) {
      ++optimal_seen;
      ASSERT_NEAR(sol.objective, ref.objective, 1e-5 * (1 + std::abs(ref.objective)))
          << "trial " << trial;
      EXPECT_TRUE(sol.certificate.ok())
          << "trial " << trial << ": " << sol.certificate.summary();
    }
    infeasible_seen += ref.status == Status::Infeasible;
  }
  EXPECT_GT(optimal_seen, 20);
  EXPECT_GT(infeasible_seen, 20);
  EXPECT_GT(phase1_from_basis, 20);
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
    // The continuation starts from the exported basis (a budget cut mid
    // phase 1 resumes phase 1 from it), not from a cold restart.
    EXPECT_TRUE(cont.warm_start == "accepted" || cont.warm_start == "repaired")
        << cont.warm_start;
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
  expect_pinned(got, {188, 12,
                      {0x3fd5555555555555ull, 0x3fde1e1e1e1e1e1eull, 0x3fe0000000000001ull,
                       0x3fe0000000000001ull, 0x3fe0000000000001ull}});
}

TEST(RevisedSimplex, PivotPathPinnedOnFigure6Sweep) {
  const Torus torus(4);
  Rng rng(606);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(rng.permutation(torus.num_nodes()));
  const PivotPath got = record_pivot_path(
      [&] { return average_case_tradeoff(torus, samples, locality_grid(1.0, 2.0, 5)); });
  expect_pinned(got, {162, 12,
                      {0x3fdc051832f1fd74ull, 0x3fe28f6716dcdf39ull, 0x3fe3ab1a801c7113ull,
                       0x3fe3ab1a801c7113ull, 0x3fe3ab1a801c7113ull}});
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// The pivot row alpha_j = a_j . rho the simplex computes row-wise over
// rho's nonzeros (RowProduct) equals the column pass (column_dot) bit for
// bit, on the bases of every point of the k=4 Figure 1 and Figure 6 sweeps
// (warm-started along the locality grid as the sweeps run them), for rho =
// B^-T e_r over a spread of rows r. Three copies are checked: the
// unsplit one (every column priceable), one split by partition() on the
// basis's statuses, and one that reaches the same split by exclude() and
// include() moves, the way pivots move columns.
TEST(RevisedSimplex, RowwisePivotRowMatchesColumnPassBitForBit) {
  const Torus torus(4);
  Rng rng(606);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(rng.permutation(torus.num_nodes()));
  const std::vector<double> grid = locality_grid(1.0, 2.0, 5);
  const double hmin = torus.mean_min_distance();
  long compared = 0, nonzero = 0, skipped = 0;
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
      std::vector<char> priceable(sf.ntotal);
      for (int j = 0; j < sf.ntotal; ++j)
        priceable[j] = res.basis.stat[j] != detail::kBasic && sf.lo[j] != sf.up[j];
      const std::vector<char> all(sf.ntotal, 1);
      RowProduct rows(a);
      RowProduct split(a);
      split.partition([&](int j) { return priceable[j] != 0; });
      RowProduct moved(a);
      for (int j = 0; j < sf.ntotal; ++j)
        if (!priceable[j]) moved.exclude(a, j);
      for (int j = 0; j < sf.ntotal; j += 3)
        if (priceable[j]) moved.exclude(a, j);
      for (int j = 0; j < sf.ntotal; j += 3)
        if (priceable[j]) moved.include(a, j);
      SparseLU lu;
      ASSERT_TRUE(lu.factor(a, res.basis.basic));
      std::vector<double> er(sf.m), rho;
      for (int r = 0; r < sf.m; r += 1 + sf.m / 40) {
        std::fill(er.begin(), er.end(), 0.0);
        er[r] = 1.0;
        lu.solve_transpose(er, rho);
        using Copy = std::pair<RowProduct*, const std::vector<char>*>;
        for (auto [copy, want] : {Copy{&rows, &all}, Copy{&split, &priceable},
                                  Copy{&moved, &priceable}}) {
          std::vector<double> alpha(sf.ntotal, 0.0);
          std::vector<char> seen(sf.ntotal, 0);
          int last = -1;
          copy->for_each(rho, [&](int j, double v) {
            EXPECT_GT(j, last);
            last = j;
            ASSERT_TRUE((*want)[j]) << "column " << j << " is not priceable";
            seen[j] = 1;
            alpha[j] = v;
          });
          for (int j = 0; j < sf.ntotal; ++j) {
            if (!(*want)[j]) {
              ++skipped;
              continue;
            }
            const double col = a.column_dot(j, rho);
            ++compared;
            if (col == 0.0) {
              EXPECT_EQ(alpha[j], 0.0) << "column " << j;
              continue;
            }
            ++nonzero;
            ASSERT_TRUE(seen[j]) << "column " << j << " row " << r << " point " << p;
            ASSERT_EQ(bits_of(alpha[j]), bits_of(col))
                << "column " << j << " row " << r << " point " << p;
          }
        }
      }
      warm = std::move(res.basis);
    }
  }
  EXPECT_GT(nonzero, 1000);
  EXPECT_LT(nonzero, compared);  // zero entries were checked as well
  EXPECT_GT(skipped, 1000);      // the split copies left columns out
}

// After every basis change of the k=4 Figure 1 and Figure 6 sweeps, the
// state the simplex keeps so that it sweeps only what can pivot is
// rebuilt from the statuses and bounds and compared: each row's priceable
// part holds exactly its nonbasic, non-fixed columns, each row still holds
// the entries it was built with, and blo/bup hold each position's basic
// column's bounds, or in phase 1 the one-sided bounds of a basic marked as
// violating one.
class KeptStateOracle final : public detail::PivotObserver {
 public:
  KeptStateOracle() { detail::install_pivot_observer(this); }
  ~KeptStateOracle() { detail::install_pivot_observer(nullptr); }
  KeptStateOracle(const KeptStateOracle&) = delete;
  KeptStateOracle& operator=(const KeptStateOracle&) = delete;

  void after_pivot(const detail::PivotState& s) override {
    ++pivots;
    const int m = s.rows.rows();
    // Each row's column sum and xor of value bits, order-free, taken at the
    // first pivot of each solve.
    std::vector<std::pair<long, std::uint64_t>> content(m, {0, 0});
    for (int i = 0; i < m; ++i) {
      for (std::size_t k = s.rows.row_begin(i); k < s.rows.row_end(i); ++k) {
        const int j = s.rows.col(k);
        const bool priceable = s.stat[j] != detail::kBasic && s.lo[j] != s.up[j];
        if ((k < s.rows.split(i)) != priceable) ++split_errors;
        content[i].first += j;
        content[i].second ^= bits_of(s.rows.value(k));
      }
    }
    const auto solve = solves_.value();
    if (solve != solve_) {
      solve_ = solve;
      content_ = content;
    } else if (content != content_) {
      ++content_errors;
    }
    for (std::size_t i = 0; i < s.basic.size(); ++i) {
      const int j = s.basic[i];
      const double c = s.cost1.empty() ? 0.0 : s.cost1[j];
      if (c != 0.0) ++marked;
      const double lo = c > 0.0 ? s.up[j] : c < 0.0 ? -kInf : s.lo[j];
      const double up = c > 0.0 ? kInf : c < 0.0 ? s.lo[j] : s.up[j];
      if (bits_of(s.blo[i]) != bits_of(lo) || bits_of(s.bup[i]) != bits_of(up)) ++bound_errors;
    }
  }

  long pivots = 0, split_errors = 0, content_errors = 0, bound_errors = 0, marked = 0;

 private:
  obs::Counter& solves_ = obs::Registry::instance().counter("lp.simplex.solves");
  std::int64_t solve_ = -1;
  std::vector<std::pair<long, std::uint64_t>> content_;
};

TEST(RevisedSimplex, KeptPivotStateMatchesOracleAfterEveryPivot) {
  const Torus torus(4);
  Rng rng(606);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(rng.permutation(torus.num_nodes()));
  const std::vector<double> grid = locality_grid(1.0, 2.0, 5);
  KeptStateOracle oracle;
  // Both cold starts: the sweeps start from the crash basis of a feasible
  // point, and direct solves of their designs from the all-logical basis,
  // whose phase 1 pivots with marked positions.
  const auto fig1 = worst_case_tradeoff(torus, grid);
  const auto fig6 = average_case_tradeoff(torus, samples, grid);
  for (const auto& p : fig1) ASSERT_TRUE(p.solved()) << p.note;
  for (const auto& p : fig6) ASSERT_TRUE(p.solved()) << p.note;
  for (const bool average : {false, true}) {
    SymmetricDesignConfig cfg;
    cfg.objective = average ? DesignObjective::AverageCase : DesignObjective::WorstCase;
    cfg.locality_equals = torus.mean_min_distance();
    cfg.locality_le = true;
    if (average) cfg.samples = samples;
    SymmetricArcDesign design(torus, cfg);
    for (const double l : grid) {
      design.set_locality_bound(l * torus.mean_min_distance());
      const Solution sol = solve(design.model());
      ASSERT_EQ(sol.status, Status::Optimal) << sol.note;
    }
  }
  EXPECT_GT(oracle.pivots, 800);
  EXPECT_EQ(oracle.split_errors, 0);
  EXPECT_EQ(oracle.content_errors, 0);
  EXPECT_EQ(oracle.bound_errors, 0);
  EXPECT_GT(oracle.marked, 0);  // phase 1's bounds were checked too
}

// After every dual pivot of the k=4 Figure 1 and Figure 6 warm sweeps, each
// dual steepest-edge weight the solver knows equals ||B^-T e_i||^2 computed
// from a fresh factorization of the new basis, to 1e-6 relative.
class DseWeightOracle final : public detail::PivotObserver {
 public:
  DseWeightOracle() { detail::install_pivot_observer(this); }
  ~DseWeightOracle() { detail::install_pivot_observer(nullptr); }
  DseWeightOracle(const DseWeightOracle&) = delete;
  DseWeightOracle& operator=(const DseWeightOracle&) = delete;

  void after_pivot(const detail::PivotState& s) override {
    if (s.weights.empty()) return;  // a primal pivot
    ++pivots;
    SparseLU lu;
    if (!lu.factor(s.a, s.basic)) {
      ++factor_failures;
      return;
    }
    const int m = static_cast<int>(s.basic.size());
    std::vector<double> e(static_cast<std::size_t>(m), 0.0), rho;
    for (int i = 0; i < m; ++i) {
      if (s.weights[i] == 0.0) continue;  // unknown until first use
      e[i] = 1.0;
      lu.solve_transpose(e, rho);
      e[i] = 0.0;
      double norm2 = 0.0;
      for (const double v : rho) norm2 += v * v;
      ++checked;
      worst = std::max(worst, std::abs(s.weights[i] - norm2) / norm2);
    }
  }

  long pivots = 0, checked = 0, factor_failures = 0;
  double worst = 0.0;
};

TEST(RevisedSimplex, DualSteepestEdgeWeightsMatchOracleAfterEveryDualPivot) {
  const Torus torus(4);
  Rng rng(606);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(rng.permutation(torus.num_nodes()));
  const std::vector<double> grid = locality_grid(1.0, 2.0, 5);
  DseWeightOracle oracle;
  for (const auto& p : worst_case_tradeoff(torus, grid)) ASSERT_TRUE(p.solved()) << p.note;
  for (const auto& p : average_case_tradeoff(torus, samples, grid)) {
    ASSERT_TRUE(p.solved()) << p.note;
  }
  EXPECT_GT(oracle.pivots, 100);
  EXPECT_GT(oracle.checked, 10000);
  EXPECT_EQ(oracle.factor_failures, 0);
  EXPECT_LE(oracle.worst, 1e-6);
}

// ---- ratio tests against their textbook forms ------------------------------
// The primal Harris test as two full passes over the rows, reading each
// basic column's bounds, and the dual bound-flipping walk over a fully
// sorted candidate list: the forms the solver ran before it swept only what
// can pivot. The kernels must return exactly what these return.
detail::HarrisStep two_pass_harris(const std::vector<double>& w, int dir,
                                   const std::vector<double>& xb,
                                   const std::vector<double>& lo,
                                   const std::vector<double>& up,
                                   const std::vector<int>& basic, double own_range,
                                   double feas_tol, bool bland) {
  const int m = static_cast<int>(w.size());
  detail::HarrisStep r;
  double t_limit = std::isfinite(own_range) ? own_range : kInf;
  for (int i = 0; i < m; ++i) {
    const double delta = dir * w[i];
    if (std::abs(delta) <= 1e-9) continue;
    const int bj = basic[i];
    double t;
    if (delta > 0) {
      if (!std::isfinite(lo[bj])) continue;
      t = (xb[i] - (lo[bj] - feas_tol)) / delta;
    } else {
      if (!std::isfinite(up[bj])) continue;
      t = ((up[bj] + feas_tol) - xb[i]) / (-delta);
    }
    t_limit = std::min(t_limit, std::max(t, 0.0));
  }
  r.t_limit = t_limit;
  if (!std::isfinite(t_limit)) return r;
  r.t_step = std::isfinite(own_range) ? own_range : kInf;
  double best_pivot = 0.0;
  for (int i = 0; i < m; ++i) {
    const double delta = dir * w[i];
    if (std::abs(delta) <= 1e-9) continue;
    const int bj = basic[i];
    double t;
    if (delta > 0) {
      if (!std::isfinite(lo[bj])) continue;
      t = (xb[i] - lo[bj]) / delta;
    } else {
      if (!std::isfinite(up[bj])) continue;
      t = (up[bj] - xb[i]) / (-delta);
    }
    t = std::max(t, 0.0);
    if (t <= t_limit + 1e-12) {
      const double piv = std::abs(w[i]);
      if (bland) {
        if (r.leave < 0 || bj < basic[r.leave]) {
          r.leave = i;
          r.t_step = t;
        }
      } else if (piv > best_pivot) {
        best_pivot = piv;
        r.leave = i;
        r.t_step = t;
      }
    }
  }
  return r;
}

int sorted_bfrt(std::vector<detail::BfrtCand>& cands, double remain, double feas_tol) {
  std::sort(cands.begin(), cands.end(), [](const detail::BfrtCand& x, const detail::BfrtCand& z) {
    if (x.ratio != z.ratio) return x.ratio < z.ratio;
    return x.col < z.col;
  });
  double absorb = 0.0;
  for (int c = 0; c < static_cast<int>(cands.size()); ++c) {
    const detail::BfrtCand& cd = cands[c];
    if (!std::isfinite(cd.range) ||
        remain - absorb - std::abs(cd.abar) * cd.range <= feas_tol) {
      return c;
    }
    absorb += std::abs(cd.abar) * cd.range;
  }
  return -1;
}

// Runs both primal ratio tests on one state; true when they agree (the
// verdict, the limit and the step, bit for bit).
bool same_harris(const std::vector<double>& w, int dir, const std::vector<double>& xb,
                 const std::vector<double>& lo, const std::vector<double>& up,
                 const std::vector<int>& basic, double own_range, bool bland) {
  const detail::HarrisStep want = two_pass_harris(w, dir, xb, lo, up, basic, own_range, 1e-7, bland);
  std::vector<double> blo, bup;
  for (const int j : basic) {
    blo.push_back(lo[j]);
    bup.push_back(up[j]);
  }
  std::vector<int> cand;
  const detail::HarrisStep got =
      detail::harris_ratio_test(w, dir, xb, blo, bup, basic, own_range, 1e-7, bland, cand);
  // The limit's zero may differ in sign; the limit is only compared.
  EXPECT_EQ(got.t_limit, want.t_limit);
  EXPECT_EQ(got.leave, want.leave);
  if (std::isfinite(want.t_limit)) {
    EXPECT_EQ(bits_of(got.t_step), bits_of(want.t_step));
  }
  return got.leave == want.leave && got.t_limit == want.t_limit &&
         (!std::isfinite(want.t_limit) || bits_of(got.t_step) == bits_of(want.t_step));
}

// Runs both bound-flipping walks on one candidate list; true when they
// pick the same entering candidate after the same flips, in the same order.
bool same_bfrt(std::vector<detail::BfrtCand> cands, double remain) {
  std::vector<detail::BfrtCand> want = cands;
  const int e_want = sorted_bfrt(want, remain, 1e-7);
  const int e_got = detail::bfrt_select(cands, remain, 1e-7);
  EXPECT_EQ(e_got, e_want);
  if (e_got != e_want) return false;
  for (int c = 0; c <= e_got; ++c) {
    EXPECT_EQ(cands[c].col, want[c].col) << "position " << c;
    if (cands[c].col != want[c].col) return false;
  }
  return true;
}

// Ratio-test states captured from the k=4 Figure 1 sweep: the optimal basis
// of each point, and
//   * the primal test for every nonbasic priceable column entering, at the
//     point's basic values, with and without Bland's rule;
//   * the dual test for every basic the next point's rhs puts out of bounds
//     (where the warm restart's dual phase starts), and for a spread of
//     rows at several violation sizes. The first candidate of these walks
//     is never boxed, so they never flip; the random states below do.
TEST(RevisedSimplex, RatioTestsMatchTextbookFormsOnCapturedStates) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 5);
  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = grid[0] * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  Basis warm;
  long primal_states = 0, dual_states = 0, contested = 0;
  for (std::size_t p = 0; p + 1 < grid.size(); ++p) {
    if (p > 0) design.set_locality_bound(grid[p] * hmin);
    DesignResult res = design.solve({}, warm.empty() ? nullptr : &warm);
    ASSERT_EQ(res.status, Status::Optimal) << res.note;
    const detail::StandardForm sf = detail::build_standard_form(design.model());
    const SparseMatrix a(sf.m, sf.ntotal, sf.triplets);
    const std::vector<int>& basic = res.basis.basic;
    const auto stat = [&](int j) { return static_cast<detail::VarStatus>(res.basis.stat[j]); };
    SparseLU lu;
    ASSERT_TRUE(lu.factor(a, basic));
    const auto basic_values = [&](std::vector<double> rhs) {
      for (int j = 0; j < sf.ntotal; ++j) {
        if (stat(j) == detail::kBasic) continue;
        const double v = stat(j) == detail::kAtLower   ? sf.lo[j]
                         : stat(j) == detail::kAtUpper ? sf.up[j]
                                                       : 0.0;
        a.add_column_to(j, -v, rhs);
      }
      std::vector<double> x;
      lu.solve(rhs, x);
      return x;
    };
    const std::vector<double> xb = basic_values(sf.b);
    for (int q = 0; q < sf.ntotal; ++q) {
      if (stat(q) == detail::kBasic || sf.lo[q] == sf.up[q]) continue;
      std::vector<double> col(sf.m, 0.0), w;
      a.add_column_to(q, 1.0, col);
      lu.solve(col, w);
      const int dir = stat(q) == detail::kAtUpper ? -1 : 1;
      for (const bool bland : {false, true}) {
        ASSERT_TRUE(same_harris(w, dir, xb, sf.lo, sf.up, basic, sf.up[q] - sf.lo[q], bland))
            << "point " << p << " column " << q;
        ++primal_states;
      }
    }

    std::vector<double> cb(sf.m), y;
    for (int i = 0; i < sf.m; ++i) cb[i] = sf.cost[basic[i]];
    lu.solve_transpose(cb, y);
    design.set_locality_bound(grid[p + 1] * hmin);
    const std::vector<double> xb_next =
        basic_values(detail::build_standard_form(design.model()).b);
    std::vector<double> er(sf.m, 0.0), rho;
    for (int i = 0; i < sf.m; ++i) {
      const int bj = basic[i];
      const bool below = xb_next[i] < sf.lo[bj] - 1e-7;
      const bool above = xb_next[i] > sf.up[bj] + 1e-7;
      const bool spread = i % 7 == 0;
      if (!below && !above && !spread) continue;
      er[i] = 1.0;
      lu.solve_transpose(er, rho);
      er[i] = 0.0;
      const double s = below || (!above && i % 2 == 0) ? -1.0 : 1.0;
      std::vector<detail::BfrtCand> cands;
      for (int j = 0; j < sf.ntotal; ++j) {
        if (stat(j) == detail::kBasic || sf.lo[j] == sf.up[j]) continue;
        const double abar = s * a.column_dot(j, rho);
        if (std::abs(abar) <= 1e-9) continue;
        if (stat(j) == detail::kAtLower ? abar <= 0.0
            : stat(j) == detail::kAtUpper ? abar >= 0.0
                                          : false) {
          continue;
        }
        cands.push_back({j, (sf.cost[j] - a.column_dot(j, y)) / abar, abar, sf.up[j] - sf.lo[j]});
      }
      std::vector<double> remains;
      if (below) remains.push_back(sf.lo[bj] - xb_next[i]);
      if (above) remains.push_back(xb_next[i] - sf.up[bj]);
      if (spread) remains.insert(remains.end(), {1e-6, 0.01, 1.0, 100.0});
      for (const double remain : remains) {
        ASSERT_TRUE(same_bfrt(cands, remain)) << "point " << p << " row " << i;
        ++dual_states;
        if (cands.size() > 1) ++contested;
      }
    }
    warm = std::move(res.basis);
  }
  EXPECT_GT(primal_states, 1000);
  EXPECT_GT(dual_states, 100);
  EXPECT_GT(contested, 100);
}

// Random states built to hit the corners: ties in ratio and in pivot size,
// infinite and fixed bounds, |delta| at and below 1e-9, basics already
// beyond their bounds, finite and infinite own ranges, Bland's rule; and
// candidate lists with tied ratios, infinite ranges and walks past the
// point where bfrt_select() stops selecting and sorts.
TEST(RevisedSimplex, RatioTestsMatchTextbookFormsOnRandomStates) {
  Rng rng(2505);
  const double pivots[] = {0.5, 1.0, 2.0};
  long primal_found = 0, dual_long = 0, dual_none = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int m = 1 + static_cast<int>(rng.below(120));
    const int n = m + 20;
    std::vector<double> lo(n), up(n);
    for (int j = 0; j < n; ++j) {
      const double r = rng.uniform();
      lo[j] = r < 0.15 ? -kInf : rng.uniform(-1, 1);
      up[j] = r < 0.05   ? kInf                  // free
              : r < 0.15 ? rng.uniform(-1, 1)    // upper bound only
              : r < 0.3  ? kInf                  // lower bound only
              : r < 0.4  ? lo[j]                 // fixed
                         : lo[j] + rng.uniform(0, 3);
    }
    std::vector<int> basic = rng.permutation(n);
    basic.resize(m);
    std::vector<double> w(m), xb(m);
    for (int i = 0; i < m; ++i) {
      const double r = rng.uniform();
      const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
      w[i] = r < 0.1    ? 0.0
             : r < 0.15 ? sign * 1e-9
             : r < 0.2  ? sign * rng.uniform(0, 1e-9)
             : r < 0.45 ? sign * pivots[rng.below(3)]
                        : rng.uniform(-3, 3);
      const int bj = basic[i];
      const double lo_f = std::isfinite(lo[bj]) ? lo[bj] : -2.0;
      const double up_f = std::isfinite(up[bj]) ? up[bj] : lo_f + 2.0;
      const double x = rng.uniform();
      xb[i] = x < 0.25   ? lo_f
              : x < 0.45 ? up_f
              : x < 0.5  ? lo_f - 5e-8
              : x < 0.55 ? up_f + 1e-6
                         : lo_f + rng.uniform() * (up_f - lo_f);
    }
    const double r = rng.uniform();
    const double own_range = r < 0.4 ? kInf : r < 0.5 ? 0.0 : rng.uniform(0, 4);
    const int dir = rng.uniform() < 0.5 ? -1 : 1;
    const bool bland = rng.uniform() < 0.3;
    ASSERT_TRUE(same_harris(w, dir, xb, lo, up, basic, own_range, bland)) << "trial " << trial;
    if (two_pass_harris(w, dir, xb, lo, up, basic, own_range, 1e-7, bland).leave >= 0)
      ++primal_found;

    const int k = static_cast<int>(rng.below(100));
    const double ratios[] = {0.0, 1e-12, 0.5, 1.0, 2.0};
    std::vector<detail::BfrtCand> cands;
    const std::vector<int> cols = rng.permutation(k);
    for (int c = 0; c < k; ++c) {
      const double abar = (rng.uniform() < 0.5 ? -1.0 : 1.0) * rng.uniform(1e-8, 3.0);
      const double ratio = rng.uniform() < 0.5 ? ratios[rng.below(5)] : rng.uniform(-1e-9, 3.0);
      const double range = rng.uniform() < 0.1 ? kInf : rng.uniform() < 0.1 ? 0.0 : rng.uniform(0, 0.2);
      cands.push_back({cols[c], ratio, abar, range});
    }
    const double remain = rng.uniform() < 0.3 ? rng.uniform(0, 1e-6) : rng.uniform(0, 20);
    ASSERT_TRUE(same_bfrt(cands, remain)) << "trial " << trial;
    const int e = sorted_bfrt(cands, remain, 1e-7);
    if (e > 32) ++dual_long;
    if (e < 0) ++dual_none;
  }
  EXPECT_GT(primal_found, 1000);
  EXPECT_GT(dual_long, 20);
  EXPECT_GT(dual_none, 20);
}

// Every degenerate pivot of either loop belongs to exactly one recorded
// run, so on the k=4 Figure 1 warm sweep, which runs the dual phase at
// every point after the first, the lp.simplex.degenerate_run histogram
// sums to the lp.simplex.degenerate_pivots count.
TEST(RevisedSimplex, DegenerateRunsSumToDegeneratePivots) {
  auto& reg = obs::Registry::instance();
  auto& runs = reg.histogram("lp.simplex.degenerate_run", 1.0, 2.0);
  auto& degenerate = reg.counter("lp.simplex.degenerate_pivots");
  auto& dual_iterations = reg.counter("lp.dual.iterations");
  const double runs0 = runs.sum();
  const auto degenerate0 = degenerate.value();
  const auto dual0 = dual_iterations.value();
  const auto pts = worst_case_tradeoff(Torus(4), locality_grid(1.0, 2.0, 5));
  for (const auto& p : pts) ASSERT_TRUE(p.solved()) << p.note;
  EXPECT_GT(dual_iterations.value() - dual0, 0);
  EXPECT_GT(degenerate.value() - degenerate0, 0);
  EXPECT_EQ(runs.sum() - runs0, static_cast<double>(degenerate.value() - degenerate0));
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
