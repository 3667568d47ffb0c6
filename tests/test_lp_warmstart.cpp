// Warm-start contract of lp::solve (ISSUE: warm-started LP sweeps): a
// supplied basis may cut work but must never change the answer. Every test
// here compares a warm solve against a cold solve of the same model and
// demands identical status, matching certified objectives, and sane
// lp.warmstart.* accounting — including for deliberately stale, singular,
// and garbage bases. The sweep-level tests pin the chain semantics of
// SweepConfig: warm and cold sweeps agree to 1e-8 and parallel sweeps are
// bitwise-identical to serial ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tcr/core/tradeoff.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/util/rng.hpp"
#include "tcr/util/thread_pool.hpp"

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
  // Keep the feasible set bounded so optima dominate the sweep.
  const int row = m.add_row(RowType::LE, rng.uniform(10, 30));
  for (int j = 0; j < cols; ++j) m.add_term(row, j, 1.0);
  const int row2 = m.add_row(RowType::GE, rng.uniform(-30, -10));
  for (int j = 0; j < cols; ++j) m.add_term(row2, j, 1.0);
  return m;
}

struct WarmCounters {
  std::int64_t attempts, accepted, repaired, rejected, phase1_skipped;
  static WarmCounters snap() {
    auto& reg = obs::Registry::instance();
    return {reg.counter("lp.warmstart.attempts").value(),
            reg.counter("lp.warmstart.accepted").value(),
            reg.counter("lp.warmstart.repaired").value(),
            reg.counter("lp.warmstart.rejected").value(),
            reg.counter("lp.warmstart.phase1_skipped").value()};
  }
  WarmCounters delta_since(const WarmCounters& base) const {
    return {attempts - base.attempts, accepted - base.accepted, repaired - base.repaired,
            rejected - base.rejected, phase1_skipped - base.phase1_skipped};
  }
  std::int64_t adopted() const { return accepted + repaired; }
  /// The accounting invariant: every adoption attempt commits exactly one
  /// outcome, so over any window attempts == accepted + repaired + rejected.
  void expect_balanced(const char* what) const {
    EXPECT_EQ(attempts, accepted + repaired + rejected) << what;
  }
};

struct DualCounters {
  std::int64_t solves, iterations, reoptimized, fallbacks, infeasible_bases;
  static DualCounters snap() {
    auto& reg = obs::Registry::instance();
    return {reg.counter("lp.dual.solves").value(), reg.counter("lp.dual.iterations").value(),
            reg.counter("lp.dual.reoptimized").value(),
            reg.counter("lp.dual.fallbacks").value(),
            reg.counter("lp.dual.infeasible_bases").value()};
  }
  DualCounters delta_since(const DualCounters& base) const {
    return {solves - base.solves, iterations - base.iterations,
            reoptimized - base.reoptimized, fallbacks - base.fallbacks,
            infeasible_bases - base.infeasible_bases};
  }
};

// Warm and cold must agree on status; on Optimal, objectives must match and
// both must carry passing certificates. Returns the warm solution.
Solution expect_warm_matches_cold(const Model& m, const Basis& warm, const SimplexOptions& opt,
                                  const char* what) {
  const Solution cold = solve(m, opt);
  const Solution ws = solve(m, opt, &warm);
  EXPECT_EQ(ws.status, cold.status) << what;
  if (cold.status == Status::Optimal) {
    EXPECT_NEAR(ws.objective, cold.objective, 1e-7 * (1 + std::abs(cold.objective))) << what;
    EXPECT_TRUE(ws.certificate.ok()) << what << ": " << ws.certificate.summary();
    const Certificate check = certify(m, ws);
    EXPECT_TRUE(check.pass) << what << ": " << check.summary();
  }
  return ws;
}

TEST(WarmStart, OwnOptimumIsAdoptedAndMatches) {
  Rng rng(4242);
  SimplexOptions opt;
  int optimal = 0;
  std::int64_t adopted = 0;
  for (int trial = 0; trial < 150; ++trial) {
    opt.seed = 9000 + trial;
    const Model m = random_model(rng, 2 + static_cast<int>(rng.below(10)),
                                 2 + static_cast<int>(rng.below(12)));
    const Solution cold = solve(m, opt);
    if (cold.status != Status::Optimal) continue;
    ++optimal;
    ASSERT_FALSE(cold.basis.empty());
    const WarmCounters before = WarmCounters::snap();
    const Solution ws = solve(m, opt, &cold.basis);
    const WarmCounters d = WarmCounters::snap().delta_since(before);
    ASSERT_EQ(ws.status, Status::Optimal) << "trial " << trial;
    EXPECT_NEAR(ws.objective, cold.objective, 1e-7 * (1 + std::abs(cold.objective)))
        << "trial " << trial;
    EXPECT_TRUE(ws.certificate.ok()) << "trial " << trial << ": " << ws.certificate.summary();
    EXPECT_EQ(d.adopted() + d.rejected, 1) << "trial " << trial;
    adopted += d.adopted();
  }
  ASSERT_GT(optimal, 20);
  // A solver's own optimal basis must essentially always be adoptable.
  EXPECT_GE(adopted, optimal - 2);
}

TEST(WarmStart, StaleBasisAfterRhsEditMatchesCold) {
  Rng rng(1717);
  SimplexOptions opt;
  int compared = 0;
  for (int trial = 0; trial < 150; ++trial) {
    opt.seed = 5000 + trial;
    Model m = random_model(rng, 3 + static_cast<int>(rng.below(9)),
                           3 + static_cast<int>(rng.below(10)));
    const Solution base = solve(m, opt);
    if (base.status != Status::Optimal) continue;

    // Move one rhs entry the way a sweep would and check the stale basis
    // still yields the cold answer.
    const int row = static_cast<int>(rng.below(m.num_rows()));
    m.set_rhs(row, m.rhs(row) + rng.uniform(-1.5, 1.5));
    expect_warm_matches_cold(m, base.basis, opt, "stale basis");
    ++compared;
  }
  ASSERT_GT(compared, 20);
}

TEST(WarmStart, GarbageBasesNeverChangeTheAnswer) {
  Rng rng(99);
  SimplexOptions opt;
  opt.seed = 31;
  // Draw until a model with a certified optimum shows up (most draws do).
  Model m;
  Solution cold;
  for (int attempt = 0; attempt < 50; ++attempt) {
    m = random_model(rng, 8, 10);
    cold = solve(m, opt);
    if (cold.status == Status::Optimal) break;
  }
  ASSERT_EQ(cold.status, Status::Optimal);
  const int n = static_cast<int>(cold.basis.stat.size());
  const int rows = static_cast<int>(cold.basis.basic.size());

  {  // Wrong dimensions: must be rejected outright, then solve cold.
    Basis b;
    b.stat.assign(3, 0);
    b.basic.assign(2, 0);
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, b, opt, "wrong dimensions");
    EXPECT_EQ(WarmCounters::snap().delta_since(before).rejected, 1);
  }
  {  // Junk status bytes are re-derived, not trusted.
    Basis b = cold.basis;
    for (std::size_t j = 0; j < b.stat.size(); j += 2) b.stat[j] = 207;
    expect_warm_matches_cold(m, b, opt, "junk status bytes");
  }
  {  // Duplicate basic entries: unrecoverable, must fall back cold.
    Basis b = cold.basis;
    ASSERT_GE(rows, 2);
    b.basic[1] = b.basic[0];
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, b, opt, "duplicate basic list");
    EXPECT_EQ(WarmCounters::snap().delta_since(before).rejected, 1);
  }
  {  // Out-of-range basic entries: likewise.
    Basis b = cold.basis;
    b.basic[0] = n + 100;
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, b, opt, "out-of-range basic entry");
    EXPECT_EQ(WarmCounters::snap().delta_since(before).rejected, 1);
  }
}

TEST(WarmStart, SingularBasisIsRepaired) {
  // A structural column with no constraint entries makes any basis that
  // includes it singular; the repair must patch it out, with the logical of
  // the row it leaves uncovered, and still reproduce the cold answer.
  Model m;
  m.add_col(0.0, kInf, 1.0);
  m.add_col(0.0, kInf, 2.0);
  const int zero_col = m.add_col(0.0, 5.0, 0.0);  // never touches a row
  const int r0 = m.add_row(RowType::GE, 2.0);
  m.add_term(r0, 0, 1.0);
  m.add_term(r0, 1, 1.0);
  const int r1 = m.add_row(RowType::LE, 10.0);
  m.add_term(r1, 0, 1.0);
  m.add_term(r1, 1, 3.0);
  SimplexOptions opt;
  const Solution cold = solve(m, opt);
  ASSERT_EQ(cold.status, Status::Optimal);

  Basis b = cold.basis;
  // Force the zero column basic in place of whatever row-0's basic was.
  b.stat[static_cast<std::size_t>(b.basic[0])] = 1;  // kAtLower
  b.basic[0] = zero_col;
  b.stat[static_cast<std::size_t>(zero_col)] = 0;  // kBasic
  const WarmCounters before = WarmCounters::snap();
  expect_warm_matches_cold(m, b, opt, "singular basis");
  const WarmCounters d = WarmCounters::snap().delta_since(before);
  EXPECT_EQ(d.repaired, 1);
  EXPECT_EQ(d.rejected, 0);
}

TEST(WarmStart, SweepChainMatchesColdAndAdoptsBases) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 6);
  SweepConfig warm_cfg;
  warm_cfg.warm_start = true;
  warm_cfg.chains = 1;
  SweepConfig cold_cfg = warm_cfg;
  cold_cfg.warm_start = false;

  auto& reused_counter = obs::Registry::instance().counter("core.design.reused");
  const WarmCounters before = WarmCounters::snap();
  const std::int64_t reused_before = reused_counter.value();
  const auto warm = worst_case_tradeoff(torus, grid, {}, nullptr, warm_cfg);
  const WarmCounters d = WarmCounters::snap().delta_since(before);
  const std::int64_t reused = reused_counter.value() - reused_before;
  const auto cold = worst_case_tradeoff(torus, grid, {}, nullptr, cold_cfg);

  ASSERT_EQ(warm.size(), grid.size());
  ASSERT_EQ(cold.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(warm[i].solved()) << "point " << i << ": " << warm[i].note;
    ASSERT_TRUE(cold[i].solved()) << "point " << i << ": " << cold[i].note;
    EXPECT_TRUE(warm[i].certificate.pass) << warm[i].certificate.summary();
    EXPECT_NEAR(warm[i].capacity_fraction, cold[i].capacity_fraction, 1e-8) << "point " << i;
  }
  // Every point gets a start basis — the chain head its crash, every later
  // point the previous point's — and the sweep is only worth shipping if
  // those bases are actually adopted. A point past the knee reuses the
  // previous certified optimum instead and hands no basis to lp::solve.
  EXPECT_EQ(d.adopted() + d.rejected + reused, static_cast<std::int64_t>(grid.size()));
  EXPECT_GT(d.adopted(), 0);
  EXPECT_GT(d.phase1_skipped, 0);
  EXPECT_GT(reused, 0);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (warm[i].warm_start == "reused") {
      EXPECT_EQ(warm[i].iterations, 0) << "point " << i;
    }
  }
}

// ---- Reuse past the knee ----------------------------------------------------
// Once the locality row's dual is 0, loosening the bound cannot move the
// optimum, so a warm design solve answers with the previous certified
// optimum: 0 iterations and a fresh certificate against the new rhs.

// A warm Figure 1 chain over `grid` on one design, each point also solved
// by lp::solve from the same warm basis (the solve a reuse replaces).
struct ReuseChain {
  std::vector<DesignResult> points;
  std::vector<double> fresh_objective;  // lp::solve's optimum per point
  std::vector<bool> seeded;             // a reuse seed was kept after the point
};

ReuseChain run_reuse_chain(const Torus& torus, const std::vector<double>& grid) {
  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = grid[0] * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  ReuseChain chain;
  Basis warm;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i > 0) design.set_locality_bound(grid[i] * hmin);
    const Basis* start = warm.empty() ? nullptr : &warm;
    const Solution fresh =
        solve(design.model(), {}, start != nullptr ? start : &design.flow_crash_hints());
    EXPECT_EQ(fresh.status, Status::Optimal) << "point " << i << ": " << fresh.note;
    chain.fresh_objective.push_back(fresh.objective);
    chain.points.push_back(design.solve({}, start));
    chain.seeded.push_back(design.reuse_seed() != nullptr);
    warm = chain.points.back().basis;
  }
  return chain;
}

TEST(Reuse, PostKneePointsReuseTheCertifiedOptimum) {
  struct Case {
    int k;
    int points;
  };
  for (const Case c : {Case{4, 5}, Case{6, 9}}) {
    const Torus torus(c.k);
    const std::vector<double> grid = locality_grid(1.0, 2.0, c.points);
    auto& reused_counter = obs::Registry::instance().counter("core.design.reused");
    const std::int64_t reused_before = reused_counter.value();
    const ReuseChain chain = run_reuse_chain(torus, grid);
    std::int64_t reused = 0;
    bool past_knee = false;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const DesignResult& r = chain.points[i];
      ASSERT_EQ(r.status, Status::Optimal) << "k " << c.k << " point " << i << ": " << r.note;
      EXPECT_TRUE(r.certificate.ok()) << r.certificate.summary();
      // The seed is kept from the first point whose locality dual is 0 on,
      // and every later point reuses it.
      EXPECT_EQ(r.warm_start == "reused", past_knee) << "k " << c.k << " point " << i;
      past_knee = past_knee || chain.seeded[i];
      EXPECT_EQ(chain.seeded[i], past_knee) << "k " << c.k << " point " << i;
      if (r.warm_start != "reused") continue;
      ++reused;
      EXPECT_EQ(r.iterations, 0);
      EXPECT_EQ(r.dual_iterations, 0);
      EXPECT_EQ(r.basis.basic, chain.points[i - 1].basis.basic) << "basis carried forward";
      EXPECT_NEAR(torus.ideal_uniform_load() / r.objective,
                  torus.ideal_uniform_load() / chain.fresh_objective[i], 1e-12)
          << "k " << c.k << " point " << i;
    }
    EXPECT_GE(reused, 2) << "k " << c.k;
    EXPECT_EQ(reused_counter.value() - reused_before, reused);
    // The chain head and the pre-knee points went to lp::solve.
    EXPECT_FALSE(chain.seeded[0]);
    EXPECT_GT(chain.points[1].iterations, 0);

    // The sweep takes the same path, point for point.
    const auto pts = worst_case_tradeoff(torus, grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(pts[i].warm_start, chain.points[i].warm_start) << "point " << i;
      EXPECT_EQ(pts[i].iterations, chain.points[i].iterations) << "point " << i;
    }
  }
}

// Only a loosened bound with a warm basis reuses: a tightened bound, even
// one still past the knee, and a cold solve go to lp::solve.
TEST(Reuse, TightenedBoundAndColdSolvesFallThrough) {
  const Torus torus(4);
  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = 1.5 * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult knee = design.solve();
  ASSERT_EQ(knee.status, Status::Optimal) << knee.note;
  ASSERT_NE(design.reuse_seed(), nullptr) << "L = 1.5 is past the k = 4 knee";

  design.set_locality_bound(2.0 * hmin);
  const DesignResult loose = design.solve({}, &knee.basis);
  EXPECT_EQ(loose.warm_start, "reused");

  // Tightened from 2.0 to 1.75: the seed would certify, but is not used.
  design.set_locality_bound(1.75 * hmin);
  const WarmCounters before = WarmCounters::snap();
  const DesignResult tight = design.solve({}, &loose.basis);
  ASSERT_EQ(tight.status, Status::Optimal) << tight.note;
  EXPECT_NE(tight.warm_start, "reused");
  EXPECT_EQ(WarmCounters::snap().delta_since(before).attempts, 1);

  // A cold solve at a looser bound starts from the crash.
  design.set_locality_bound(2.0 * hmin);
  const DesignResult cold = design.solve();
  ASSERT_EQ(cold.status, Status::Optimal) << cold.note;
  EXPECT_NE(cold.warm_start, "reused");

  // Before the knee the locality dual is not 0: no seed, no reuse.
  design.set_locality_bound(1.0 * hmin);
  const DesignResult minimal = design.solve({}, &cold.basis);
  ASSERT_EQ(minimal.status, Status::Optimal) << minimal.note;
  EXPECT_EQ(design.reuse_seed(), nullptr);
  design.set_locality_bound(1.125 * hmin);
  const DesignResult next = design.solve({}, &minimal.basis);
  ASSERT_EQ(next.status, Status::Optimal) << next.note;
  EXPECT_NE(next.warm_start, "reused");
  EXPECT_GT(next.iterations, 0);
}

// A seed that no longer certifies is not reused: a seed handed in with a
// perturbed optimum fails lp::certify against the model and the solve goes
// to lp::solve.
TEST(Reuse, SeedThatFailsItsCertificateFallsThrough) {
  const Torus torus(4);
  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = 1.5 * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult knee = design.solve();
  ASSERT_EQ(knee.status, Status::Optimal) << knee.note;
  ASSERT_NE(design.reuse_seed(), nullptr);
  Solution bad = *design.reuse_seed();
  bad.x[0] += 1e-3;
  design.set_reuse_seed(bad);
  design.set_locality_bound(2.0 * hmin);
  const DesignResult res = design.solve({}, &knee.basis);
  ASSERT_EQ(res.status, Status::Optimal) << res.note;
  EXPECT_NE(res.warm_start, "reused");
  EXPECT_TRUE(res.certificate.ok()) << res.certificate.summary();
}

TEST(WarmStart, ParallelSweepBitwiseMatchesSerial) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 7);
  SweepConfig cfg;
  cfg.warm_start = true;
  cfg.chains = 2;  // fixed partition -> identical warm seeds either way

  const auto serial = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);
  ThreadPool pool(3);
  const auto parallel = worst_case_tradeoff(torus, grid, {}, &pool, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, parallel[i].status) << "point " << i;
    // Bitwise: the same chain partition must run the same pivot sequence.
    EXPECT_EQ(std::memcmp(&serial[i].capacity_fraction, &parallel[i].capacity_fraction,
                          sizeof(double)),
              0)
        << "point " << i << ": " << serial[i].capacity_fraction << " vs "
        << parallel[i].capacity_fraction;
    EXPECT_EQ(serial[i].locality, parallel[i].locality) << "point " << i;
  }
}

TEST(WarmStart, UnsolvablePointIsNaNAndChainSurvives) {
  const Torus torus(4);
  // 0.5 is below the minimal normalized locality of 1.0 -> infeasible; the
  // rest of the chain must still reach certified optima off a cold restart.
  const std::vector<double> grid = {0.5, 1.0, 1.5, 2.0};
  SweepConfig cfg;
  cfg.warm_start = true;
  cfg.chains = 1;
  const auto pts = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);
  ASSERT_EQ(pts.size(), grid.size());
  EXPECT_FALSE(pts[0].solved());
  EXPECT_TRUE(std::isnan(pts[0].capacity_fraction));
  for (std::size_t i = 1; i < pts.size(); ++i) {
    ASSERT_TRUE(pts[i].solved()) << "point " << i << ": " << pts[i].note;
    EXPECT_TRUE(pts[i].certificate.pass) << pts[i].certificate.summary();
    EXPECT_FALSE(std::isnan(pts[i].capacity_fraction));
  }
}

// The accounting invariant across a mixed population of adoption paths:
// pristine optimal bases (accepted), rhs-edited bases (dual reoptimization
// or repair), and assorted garbage (rejected). Every lp::solve with a warm
// basis must bump attempts exactly once and commit exactly one outcome.
TEST(WarmStart, AttemptsAlwaysEqualCommittedOutcomes) {
  Rng rng(2024);
  SimplexOptions opt;
  const WarmCounters start = WarmCounters::snap();
  int solves = 0;
  for (int trial = 0; trial < 300; ++trial) {
    opt.seed = 700 + trial;
    Model m = random_model(rng, 3 + static_cast<int>(rng.below(8)),
                           3 + static_cast<int>(rng.below(10)));
    const Solution cold = solve(m, opt);
    if (cold.status != Status::Optimal) continue;

    Basis warm = cold.basis;
    const double r = rng.uniform();
    const char* what = "pristine";
    if (r < 0.35) {
      // rhs edit: the dual-reoptimization path.
      const int row = static_cast<int>(rng.below(m.num_rows()));
      m.set_rhs(row, m.rhs(row) + rng.uniform(-1.0, 1.0));
      what = "rhs edit";
    } else if (r < 0.55) {
      // cost flip on top of an rhs edit: the dual screen must bounce it.
      const int row = static_cast<int>(rng.below(m.num_rows()));
      m.set_rhs(row, m.rhs(row) + rng.uniform(-1.0, 1.0));
      for (int j = 0; j < m.num_cols(); ++j) m.set_cost(j, -m.cost(j));
      what = "rhs + cost flip";
    } else if (r < 0.7) {
      // Garbage status bytes.
      for (std::size_t j = 0; j < warm.stat.size(); j += 2) warm.stat[j] = 31;
      what = "junk stat";
    } else if (r < 0.8) {
      warm.basic.assign(warm.basic.size(), 0);  // duplicate basic entries
      what = "duplicate basics";
    }
    const WarmCounters before = WarmCounters::snap();
    expect_warm_matches_cold(m, warm, opt, what);
    const WarmCounters d = WarmCounters::snap().delta_since(before);
    // One lp::solve = one adoption attempt (the recovery retries may
    // re-solve on numerical failure, but these well-scaled models never
    // need it).
    EXPECT_EQ(d.attempts, 1) << what << " trial " << trial;
    d.expect_balanced(what);
    ++solves;
  }
  ASSERT_GT(solves, 40);
  WarmCounters::snap().delta_since(start).expect_balanced("whole population");
}

// After a pure rhs edit the old optimal basis stays dual feasible, so the
// warm solve must route through the dual simplex (lp.dual.solves) and
// usually reoptimize without phase 1 — and the answer must match a cold
// solve exactly as the certificate demands. The population runs at the
// default refactorization cadence and at both extremes: refactor_every = 1
// rebuilds the factors after every pivot, and 1000000 updates them through
// every pivot until a verdict needs fresh ones.
TEST(DualRestart, RhsEditReoptimizesThroughDualPhase) {
  for (const int refactor_every : {SimplexOptions{}.refactor_every, 1, 1000000}) {
    SCOPED_TRACE("refactor_every = " + std::to_string(refactor_every));
    Rng rng(8888);
    SimplexOptions opt;
    opt.refactor_every = refactor_every;
    int compared = 0;
    const DualCounters start = DualCounters::snap();
    for (int trial = 0; trial < 300; ++trial) {
      opt.seed = 2600 + trial;
      Model m = random_model(rng, 4 + static_cast<int>(rng.below(8)),
                             4 + static_cast<int>(rng.below(10)));
      const Solution base = solve(m, opt);
      if (base.status != Status::Optimal) continue;
      // Large edits so the old basic point usually leaves its bounds: a
      // gentle nudge is often still primal feasible and adopts without any
      // reoptimization, which would leave the dual phase untested.
      const int row = static_cast<int>(rng.below(m.num_rows()));
      m.set_rhs(row, m.rhs(row) + rng.uniform(2.0, 6.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0));

      const WarmCounters before = WarmCounters::snap();
      expect_warm_matches_cold(m, base.basis, opt, "dual rhs-edit restart");
      WarmCounters::snap().delta_since(before).expect_balanced("dual restart");
      ++compared;
    }
    ASSERT_GT(compared, 40);
    const DualCounters d = DualCounters::snap().delta_since(start);
    // The screen must route a healthy share of these restarts into the dual
    // phase, and most dual runs must finish there (reoptimized), not fall
    // back.
    EXPECT_GT(d.solves, compared / 8) << "dual phase barely engaged";
    EXPECT_GT(d.reoptimized, 0);
    EXPECT_GE(d.solves, d.reoptimized + d.fallbacks);
  }
}

// The caller does not have to say which row moved: a warm basis that an rhs
// edit pushed out of bounds enters the dual phase on its own. min x + 2y
// s.t. x + y >= 2, x <= 3 is optimal at (2, 0) with the x <= 3 slack basic;
// tightening that row to x <= 1 leaves the basis dual feasible but puts x
// out of bounds, and one dual pivot brings y in at the new optimum (1, 1).
TEST(DualRestart, UnannotatedRhsEditEntersDualPhase) {
  Model m;
  const int x = m.add_col(0.0, kInf, 1.0);
  const int y = m.add_col(0.0, kInf, 2.0);
  m.add_row(RowType::GE, 2.0, {{x, 1.0}, {y, 1.0}});
  const int cap = m.add_row(RowType::LE, 3.0, {{x, 1.0}});
  const Solution base = solve(m);
  ASSERT_EQ(base.status, Status::Optimal);
  ASSERT_NEAR(base.objective, 2.0, 1e-9);

  m.set_rhs(cap, 1.0);
  const DualCounters before = DualCounters::snap();
  const Solution ws = expect_warm_matches_cold(m, base.basis, {}, "unannotated rhs edit");
  const DualCounters d = DualCounters::snap().delta_since(before);
  ASSERT_EQ(ws.status, Status::Optimal);
  EXPECT_NEAR(ws.objective, 3.0, 1e-9);
  EXPECT_EQ(d.solves, 1);
  EXPECT_EQ(d.reoptimized, 1);
  EXPECT_GT(ws.dual_iterations, 0);
  EXPECT_EQ(ws.phase1_iterations, 0);
}

// The dual loop takes pivots down to |alpha| = 1e-9, but the basis factor
// updates only through pivots of at least 1e-7 and rebuilds for smaller
// ones. Two copies of min x + 2y s.t. x + a y >= 2, x <= 3 are optimal at
// (2, 0) with the x <= 3 slack basic. Tightening that row by 1e-3 in the
// first copy (a = eps) and by 1e-4 in the second (a = 1) puts both x out of
// bounds; the dual loop repairs the larger violation first, bringing y in
// through a pivot of -eps, then the second copy's y through a pivot of -1.
// At eps = 1e-8 the first pivot must be taken and the factor rebuilt: one
// refactorization more than at eps = 1e-6, whose pivot is updated. Both
// restarts must end at the optimum, certified.
TEST(DualRestart, TinyDualPivotRebuildsTheFactor) {
  auto& refactorizations = obs::Registry::instance().counter("lp.simplex.refactorizations");
  // The refactorizations of the restart, which must end at the optimum.
  const auto restart = [&](double eps) {
    Model m;
    std::vector<int> caps, ys;
    double optimum = 0.0;
    for (const auto& [a, cut] : {std::pair{eps, 1e-3}, std::pair{1.0, 1e-4}}) {
      const int x = m.add_col(0.0, kInf, 1.0);
      const int y = m.add_col(0.0, kInf, 2.0);
      m.add_row(RowType::GE, 2.0, {{x, 1.0}, {y, a}});
      caps.push_back(m.add_row(RowType::LE, 3.0, {{x, 1.0}}));
      ys.push_back(y);
      optimum += 2.0 - cut + 2.0 * cut / a;
    }
    const Solution base = solve(m);
    EXPECT_EQ(base.status, Status::Optimal);
    m.set_rhs(caps[0], 2.0 - 1e-3);
    m.set_rhs(caps[1], 2.0 - 1e-4);
    const std::int64_t before = refactorizations.value();
    const Solution ws = solve(m, {}, &base.basis);
    const std::int64_t refactors = refactorizations.value() - before;
    EXPECT_EQ(ws.status, Status::Optimal) << ws.note;
    EXPECT_EQ(ws.warm_start, "accepted");
    EXPECT_EQ(ws.phase1_iterations, 0);
    EXPECT_NEAR(ws.x[ys[0]], 1e-3 / eps, 1e-9 / eps);
    EXPECT_NEAR(ws.x[ys[1]], 1e-4, 1e-9);
    EXPECT_NEAR(ws.objective, optimum, 1e-9 * optimum);
    EXPECT_TRUE(ws.certificate.ok()) << ws.certificate.summary();
    return refactors;
  };
  const std::int64_t updated = restart(1e-6);
  const DualCounters before = DualCounters::snap();
  const std::int64_t rebuilt = restart(1e-8);
  const DualCounters d = DualCounters::snap().delta_since(before);
  EXPECT_EQ(d.solves, 1);
  EXPECT_EQ(d.reoptimized, 1);
  EXPECT_EQ(rebuilt, updated + 1);
}

// A dual-infeasible warm basis (rhs edit plus a cost flip) must be caught by
// the dual-feasibility screen — counted in lp.dual.infeasible_bases, not
// launched into the dual phase — and still reproduce the cold answer. Such a
// basis is structurally sound, so it is adopted even when the edit put its
// point out of bounds: phase 1 then starts from it.
TEST(DualRestart, DualInfeasibleBasisIsScreenedOut) {
  Rng rng(31337);
  SimplexOptions opt;
  int compared = 0, phase1_from_basis = 0;
  const DualCounters start = DualCounters::snap();
  for (int trial = 0; trial < 250; ++trial) {
    opt.seed = 4100 + trial;
    Model m = random_model(rng, 4 + static_cast<int>(rng.below(7)),
                           4 + static_cast<int>(rng.below(9)));
    const Solution base = solve(m, opt);
    if (base.status != Status::Optimal) continue;
    const int row = static_cast<int>(rng.below(m.num_rows()));
    m.set_rhs(row, m.rhs(row) + rng.uniform(-2.0, 2.0));
    // Invert the objective: the old reduced costs change sign, so the basis
    // is (near-)certainly dual infeasible while structurally fine.
    for (int j = 0; j < m.num_cols(); ++j) m.set_cost(j, -m.cost(j));

    const WarmCounters before = WarmCounters::snap();
    const Solution ws = expect_warm_matches_cold(m, base.basis, opt, "dual-infeasible basis");
    const WarmCounters d = WarmCounters::snap().delta_since(before);
    EXPECT_EQ(d.attempts, 1) << "trial " << trial;
    // Clean statuses and a nonsingular basis leave nothing to repair and
    // nothing to reject: the basis is accepted, whatever its point.
    EXPECT_EQ(d.accepted, 1) << "trial " << trial;
    d.expect_balanced("dual-infeasible basis");
    if (ws.phase1_iterations > 0 && ws.dual_iterations == 0) ++phase1_from_basis;
    ++compared;
  }
  ASSERT_GT(compared, 25);
  EXPECT_GT(phase1_from_basis, 0) << "no out-of-bounds basis reached phase 1";
  const DualCounters d = DualCounters::snap().delta_since(start);
  EXPECT_GT(d.infeasible_bases, 0) << "screen never fired";
  // Screened bases never launch the dual phase, so dual activity in this
  // window is bounded by the (rare) flips that happen to stay dual feasible.
  EXPECT_LT(d.solves, compared / 4) << "screen let too many flipped bases through";
}

// When the dual phase gives up, phase 1 runs from the basis it ended on,
// and counts only its own pivots. min x + 2y s.t. x + y >= 2, x <= 3,
// y <= 1 is optimal at (2, 0); raising the first row to x + y >= 10 leaves
// that basis dual feasible, but the model is now infeasible, so the dual
// phase ends dual-unbounded and phase 1 confirms the verdict.
TEST(DualRestart, FallbackCountsPhase1PivotsOnce) {
  Model m;
  const int x = m.add_col(0.0, kInf, 1.0);
  const int y = m.add_col(0.0, kInf, 2.0);
  const int demand = m.add_row(RowType::GE, 2.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(RowType::LE, 3.0, {{x, 1.0}});
  m.add_row(RowType::LE, 1.0, {{y, 1.0}});
  const Solution base = solve(m);
  ASSERT_EQ(base.status, Status::Optimal);

  m.set_rhs(demand, 10.0);
  const DualCounters before = DualCounters::snap();
  const Solution ws = expect_warm_matches_cold(m, base.basis, {}, "infeasible rhs edit");
  const DualCounters d = DualCounters::snap().delta_since(before);
  EXPECT_EQ(ws.status, Status::Infeasible);
  EXPECT_EQ(ws.warm_start, "accepted");
  EXPECT_EQ(d.fallbacks, 1);
  EXPECT_GT(ws.dual_iterations, 0);
  EXPECT_LE(ws.phase1_iterations + ws.dual_iterations, ws.iterations);
}

// A dual phase that gives up on a sweep point hands its basis to phase 1;
// the point is neither rejected nor restarted from the all-logical basis.
// With four chains over eleven points of the k = 6 Figure 1 sweep, the last
// chain solves L = 1.8 from its crash and L = 1.9 warm, and a warm L = 2
// solve from that basis stops its dual phase numerically after hundreds of
// pivots. The sweep itself reuses the L = 1.8 optimum at both later points
// (past the knee), so the chain's restarts are driven through lp::solve on
// its design. The curve must still equal the one-chain curve.
TEST(DualRestart, FallbackKeepsTheBasisOnASweep) {
  const Torus torus(6);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 11);
  SweepConfig one;
  one.chains = 1;
  SweepConfig four;
  four.chains = 4;
  const auto ref = worst_case_tradeoff(torus, grid, {}, nullptr, one);

  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = grid[8] * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult head = design.solve();
  ASSERT_EQ(head.status, Status::Optimal) << head.note;
  design.set_locality_bound(grid[9] * hmin);
  const Solution mid = solve(design.model(), {}, &head.basis);
  ASSERT_EQ(mid.status, Status::Optimal) << mid.note;
  design.set_locality_bound(grid[10] * hmin);
  const DualCounters before = DualCounters::snap();
  const Solution last = solve(design.model(), {}, &mid.basis);
  const DualCounters d = DualCounters::snap().delta_since(before);
  EXPECT_GE(d.fallbacks, 1);
  ASSERT_EQ(last.status, Status::Optimal) << last.note;
  EXPECT_NE(last.warm_start, "rejected");
  EXPECT_NEAR(torus.ideal_uniform_load() / last.objective, ref[10].capacity_fraction, 1e-9);

  const auto pts = worst_case_tradeoff(torus, grid, {}, nullptr, four);
  ASSERT_EQ(pts.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(pts[i].solved()) << "point " << i << ": " << pts[i].note;
    EXPECT_NE(pts[i].warm_start, "rejected") << "point " << i;
    EXPECT_NEAR(pts[i].capacity_fraction, ref[i].capacity_fraction, 1e-9) << "point " << i;
  }
}

// Sweep-level contract of the dual restarts: the warm chain must agree with
// the cold chain to near machine precision and engage the dual phase on the
// post-head points.
TEST(DualRestart, SweepDualRestartsMatchColdTightly) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 6);
  SweepConfig warm_cfg;
  warm_cfg.warm_start = true;
  warm_cfg.chains = 1;
  SweepConfig cold_cfg = warm_cfg;
  cold_cfg.warm_start = false;

  const DualCounters before = DualCounters::snap();
  const auto warm = worst_case_tradeoff(torus, grid, {}, nullptr, warm_cfg);
  const DualCounters d = DualCounters::snap().delta_since(before);
  const auto cold = worst_case_tradeoff(torus, grid, {}, nullptr, cold_cfg);

  ASSERT_EQ(warm.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(warm[i].solved()) << "point " << i << ": " << warm[i].note;
    ASSERT_TRUE(cold[i].solved()) << "point " << i;
    EXPECT_TRUE(warm[i].certificate.pass) << warm[i].certificate.summary();
    // Dual-restarted sweep objectives equal cold to 5e-15.
    EXPECT_NEAR(warm[i].capacity_fraction, cold[i].capacity_fraction,
                5e-15 * (1 + std::abs(cold[i].capacity_fraction)))
        << "point " << i;
  }
  // Post-head points carry a dual-feasible rhs-edited basis; the phase must
  // actually engage and carry most of them to optimality.
  EXPECT_GT(d.solves, 0);
  EXPECT_GT(d.reoptimized, 0);
}

// The dual steepest-edge weights ride with the basis: a dual restart
// exports them and a warm basis accepted unchanged brings them back.
// Weights of the wrong size or with a non-finite entry are dropped, not the
// basis: the restart then pivots exactly as from the same basis without
// weights, and reaches the same optimum.
TEST(DualRestart, InvalidWeightsAreDroppedAndTheBasisKept) {
  const Torus torus(4);
  const double hmin = torus.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult head = design.solve();
  ASSERT_EQ(head.status, Status::Optimal) << head.note;
  EXPECT_TRUE(head.basis.weights.empty());  // no dual phase ran
  design.set_locality_bound(1.25 * hmin);
  const DesignResult mid = design.solve({}, &head.basis);
  ASSERT_EQ(mid.status, Status::Optimal) << mid.note;
  ASSERT_GT(mid.dual_iterations, 0);
  ASSERT_EQ(mid.basis.weights.size(), mid.basis.basic.size());

  // The restarts go to lp::solve itself: at L = 1.5 the locality dual is 0,
  // so a warm design.solve() would reuse the optimum of the solve before it.
  design.set_locality_bound(1.5 * hmin);
  Basis bare = mid.basis;
  bare.weights.clear();
  const Solution ref = solve(design.model(), {}, &bare);
  ASSERT_EQ(ref.status, Status::Optimal) << ref.note;
  ASSERT_GT(ref.dual_iterations, 0);

  const Solution carried = solve(design.model(), {}, &mid.basis);
  ASSERT_EQ(carried.status, Status::Optimal) << carried.note;
  EXPECT_EQ(carried.warm_start, "accepted");
  EXPECT_NEAR(carried.objective, ref.objective, 1e-9 * ref.objective);
  // The adopted weights stay known: the restart that carried them ends
  // knowing more than the one that computed only its own.
  const auto known = [](const Basis& b) {
    return std::count_if(b.weights.begin(), b.weights.end(), [](double v) { return v > 0.0; });
  };
  EXPECT_GT(known(carried.basis), known(ref.basis));

  Basis short_weights = mid.basis;
  short_weights.weights.pop_back();
  Basis nan_weight = mid.basis;
  nan_weight.weights[0] = std::numeric_limits<double>::quiet_NaN();
  Basis inf_weight = mid.basis;
  inf_weight.weights.back() = kInf;
  for (const Basis* bad : {&short_weights, &nan_weight, &inf_weight}) {
    const Solution res = solve(design.model(), {}, bad);
    ASSERT_EQ(res.status, Status::Optimal) << res.note;
    EXPECT_TRUE(res.certificate.pass) << res.certificate.summary();
    EXPECT_EQ(res.warm_start, "accepted");
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.dual_iterations, ref.dual_iterations);
    EXPECT_EQ(res.objective, ref.objective);
  }
}

// Parallel chains with the dual phase active must stay bitwise-deterministic
// (same partition -> same pivot sequence on every worker).
TEST(DualRestart, ParallelDualSweepBitwiseMatchesSerial) {
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 7);
  SweepConfig cfg;
  cfg.warm_start = true;
  cfg.chains = 2;

  const auto serial = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);
  ThreadPool pool(3);
  const auto parallel = worst_case_tradeoff(torus, grid, {}, &pool, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, parallel[i].status) << "point " << i;
    EXPECT_EQ(std::memcmp(&serial[i].capacity_fraction, &parallel[i].capacity_fraction,
                          sizeof(double)),
              0)
        << "point " << i;
  }
}

}  // namespace
}  // namespace tcr::lp
