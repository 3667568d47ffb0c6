// The core LP design machinery (§3-§5): capacity LPs against the analytic
// value, the symmetry reduction against the general formulation, worst-case
// optimal designs against the known cap/2 bound, and flow decomposition.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "tcr/core/design.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

TEST(CapacityLP, MatchesAnalyticIdealLoad) {
  for (int k : {3, 4, 5}) {
    const Torus t(k);
    EXPECT_NEAR(capacity_design_load(t), t.ideal_uniform_load(), 1e-6) << "k=" << k;
  }
}

TEST(CapacityLP, GeneralFormulationAgreesOnTinyTorus) {
  // The O(CN^2) general LP and the O(CN) symmetric LP must find the same
  // optimum — this validates the §4 symmetry reduction end to end.
  for (int k : {3}) {
    const Torus t(k);
    const auto general = general_capacity_design(t.graph());
    ASSERT_EQ(general.status, lp::Status::Optimal) << "k=" << k;
    EXPECT_NEAR(general.objective, t.ideal_uniform_load(), 1e-6) << "k=" << k;
  }
}

TEST(CapacityLP, UnidirectionalRing) {
  // Uniform traffic on a one-way ring of n nodes: every pair has exactly one
  // path; channel load = (1/n) * sum over pairs through a channel =
  // (n-1)/2... mean distance sum: each channel carries sum_{d=1}^{n-1} d/n
  // = (n-1)/2.
  for (int n : {3, 4, 6}) {
    const auto res = general_capacity_design(make_ring(n));
    ASSERT_EQ(res.status, lp::Status::Optimal);
    EXPECT_NEAR(res.objective, (n - 1) / 2.0, 1e-6) << "n=" << n;
  }
}

TEST(WorstCaseDesign, GeneralMatchesSymmetricOnTinyTorus) {
  const Torus t(3);
  const auto general = general_worst_case_design(t.graph());
  ASSERT_EQ(general.status, lp::Status::Optimal);

  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  SymmetricArcDesign sym(t, cfg);
  const auto res = sym.solve();
  ASSERT_EQ(res.status, lp::Status::Optimal);
  EXPECT_NEAR(res.objective, general.objective, 1e-5);
}

class WorstCaseOptimal : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Radices, WorstCaseOptimal, ::testing::Values(3, 4, 5));

TEST_P(WorstCaseOptimal, AchievesHalfCapacityAndVerifiesExactly) {
  const Torus t(GetParam());
  const auto opt = design_worst_case_optimal(t);
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  // Known result: optimal worst-case load is twice the uniform-optimal load
  // (VAL achieves it; nothing oblivious beats it).
  EXPECT_NEAR(opt.objective, 2.0 * t.ideal_uniform_load(), 1e-5);
  // The decomposed routing must be valid and its *exact* (Hungarian-based)
  // worst case must equal the LP's claim — LP and matching machinery agree.
  EXPECT_NO_THROW(opt.routing.validate(1e-5));
  EXPECT_NEAR(worst_case(opt.routing).gamma, opt.objective, 1e-4);
  // Locality can't beat minimal routing.
  EXPECT_GE(opt.locality_norm, 1.0 - 1e-6);
  EXPECT_NEAR(opt.routing.normalized_locality(), opt.locality_norm, 1e-5);
}

TEST(WorstCaseDesign, LocalityConstraintOneIsDorLike) {
  // Forcing minimal locality (L = 1) must give DOR's worst case — the paper
  // says DOR is worst-case optimal among minimal algorithms.
  const Torus t(4);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = t.mean_min_distance();
  SymmetricArcDesign design(t, cfg);
  const auto res = design.solve();
  ASSERT_EQ(res.status, lp::Status::Optimal);
  const double dor_gamma = worst_case(make_dor(t)).gamma;
  EXPECT_LE(res.objective, dor_gamma + 1e-6);
  EXPECT_GT(res.objective, 2.0 * t.ideal_uniform_load() - 1e-6);  // worse than cap/2
}

TEST(WorstCaseDesign, FoldedAndUnfoldedAgree) {
  // The dihedral variable folding must be lossless for the worst-case
  // objective (group-averaging/convexity argument, DESIGN.md).
  const Torus t(4);
  double objectives[2];
  for (bool fold : {true, false}) {
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::WorstCase;
    cfg.fold_dihedral = fold;
    SymmetricArcDesign design(t, cfg);
    const auto res = design.solve();
    ASSERT_EQ(res.status, lp::Status::Optimal) << "fold=" << fold;
    objectives[fold ? 0 : 1] = res.objective;
  }
  EXPECT_NEAR(objectives[0], objectives[1], 1e-6);
}

TEST(TradeoffCurve, MonotoneAndBracketedByEndpoints) {
  const Torus t(4);
  const auto curve = worst_case_tradeoff(t, locality_grid(1.0, 2.0, 5));
  ASSERT_EQ(curve.size(), 5u);
  double prev = 0.0;
  for (const auto& pt : curve) {
    ASSERT_EQ(pt.status, lp::Status::Optimal) << "L=" << pt.locality;
    EXPECT_GE(pt.capacity_fraction, prev - 1e-6) << "L=" << pt.locality;
    prev = std::max(prev, pt.capacity_fraction);
    EXPECT_LE(pt.capacity_fraction, 0.5 + 1e-6);
  }
  // At L = 2 the optimum must reach the global worst-case optimum (cap/2).
  EXPECT_NEAR(curve.back().capacity_fraction, 0.5, 1e-4);
}

TEST(AverageCaseDesign, OptimumBeatsDorOnItsOwnSamples) {
  const Torus t(4);
  Rng rng(3);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 12; ++i) samples.push_back(rng.permutation(t.num_nodes()));
  const auto opt = design_average_case_optimal(t, samples);
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  EXPECT_NO_THROW(opt.routing.validate(1e-5));

  // Evaluate DOR's mean max load on the same samples; the design optimum
  // cannot be worse.
  const TorusRouting dor = make_dor(t);
  double dor_mean = 0.0;
  for (const auto& perm : samples) dor_mean += max_channel_load(dor, perm);
  dor_mean /= samples.size();
  EXPECT_LE(opt.objective, dor_mean + 1e-6);

  // And the designed routing's sampled mean load must equal the LP value.
  double mean = 0.0;
  for (const auto& perm : samples) mean += max_channel_load(opt.routing, perm);
  mean /= samples.size();
  EXPECT_NEAR(mean, opt.objective, 1e-4);
}

TEST(FlowDecomposition, RecoversPathsAndDiscardsCycles) {
  const Torus t(4);
  const int e = t.node(2, 1);
  std::vector<double> flow(t.num_channels(), 0.0);
  // A legit path 0 -> (1,0) -> (2,0) -> (2,1) with flow 1...
  flow[t.channel(t.node(0, 0), Dir::PX)] += 1.0;
  flow[t.channel(t.node(1, 0), Dir::PX)] += 1.0;
  flow[t.channel(t.node(2, 0), Dir::PY)] += 1.0;
  // ...plus a spurious cycle around row 3.
  for (int x = 0; x < 4; ++x) flow[t.channel(t.node(x, 3), Dir::PX)] += 0.25;
  const auto paths = decompose_flow(t, e, flow);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NEAR(paths[0].weight, 1.0, 1e-12);
  EXPECT_EQ(paths[0].path.length(), 3);
}

// The crash basis must be well-formed (right sizes, in-range columns, no
// duplicates) and substantial, built for the current locality bound, cached
// until the bound moves, and never built for a warm solve.
TEST(FlowCrash, HintsAreWellFormedAndCached) {
  auto& builds = obs::Registry::instance().counter("core.design.crash_points");
  const Torus t(4);
  const double hmin = t.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(t, cfg);
  const std::int64_t builds0 = builds.value();
  const lp::Basis& crash = design.flow_crash_hints();
  EXPECT_EQ(builds.value() - builds0, 1);
  const lp::Model& m = design.model();
  ASSERT_EQ(static_cast<int>(crash.basic.size()), m.num_rows());
  ASSERT_GE(crash.stat.size(), static_cast<std::size_t>(m.num_cols() + m.num_rows()));

  std::vector<char> seen(crash.stat.size(), 0);
  int covered = 0;
  for (const int col : crash.basic) {
    ASSERT_GE(col, 0);
    ASSERT_LT(col, static_cast<int>(crash.stat.size()));
    EXPECT_FALSE(seen[static_cast<std::size_t>(col)]) << "duplicate column " << col;
    EXPECT_EQ(crash.stat[static_cast<std::size_t>(col)], 0) << "basic column " << col;
    seen[static_cast<std::size_t>(col)] = 1;
    covered += col < m.num_cols();
  }
  // DOR's positive flows and the matching potentials are basic; a loose
  // floor guards against the crossover silently nominating nothing.
  int floor = 0;
  for (int e = 1; e < t.num_nodes(); ++e) floor += t.min_dist(0, e);
  EXPECT_GE(covered, floor / 2);

  // Cached: the same bound builds nothing and hands back the same basis.
  const std::vector<int> at_one = crash.basic;
  EXPECT_EQ(design.flow_crash_hints().basic, at_one);
  EXPECT_EQ(builds.value() - builds0, 1);

  // Per locality bound: a moved bound builds the hints a fresh design at
  // that bound builds, once.
  design.set_locality_bound(1.5 * hmin);
  const std::vector<int> at_mid = design.flow_crash_hints().basic;
  EXPECT_EQ(builds.value() - builds0, 2);
  EXPECT_EQ(design.flow_crash_hints().basic, at_mid);
  EXPECT_EQ(builds.value() - builds0, 2);
  SymmetricDesignConfig mid_cfg = cfg;
  mid_cfg.locality_equals = 1.5 * hmin;
  SymmetricArcDesign fresh(t, mid_cfg);
  EXPECT_EQ(fresh.flow_crash_hints().basic, at_mid);

  // A warm solve has its basis; it does not build a crash.
  const DesignResult cold = design.solve();
  ASSERT_EQ(cold.status, lp::Status::Optimal);
  design.set_locality_bound(1.75 * hmin);
  const std::int64_t before_warm = builds.value();
  const DesignResult warm = design.solve({}, &cold.basis);
  ASSERT_EQ(warm.status, lp::Status::Optimal);
  EXPECT_EQ(builds.value(), before_warm);
}

// Every design objective at k = 4, 6 and 8 over the 9-point grid: the start
// point is feasible, and every cold solve adopts its crash basis as feasible
// and runs no phase 1. Adoption is decided before the first pivot, so at
// k = 8 one iteration shows it. At k = 4 and 6 the solves run to a
// certified optimum equal to the all-logical start's: the crash trades
// iterations, never optima. The locality objective's worst-case cap is
// loose enough for its DOR start point.
class StartPoint : public ::testing::TestWithParam<std::tuple<int, DesignObjective>> {};

TEST_P(StartPoint, IsFeasibleAndSkipsPhase1) {
  const auto [k, objective] = GetParam();
  const Torus t(k);
  const double hmin = t.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = objective;
  cfg.locality_equals = hmin;
  cfg.locality_le = true;
  if (objective == DesignObjective::AverageCase) {
    Rng rng(606);
    for (int i = 0; i < 4; ++i) cfg.samples.push_back(rng.permutation(t.num_nodes()));
  }
  if (objective == DesignObjective::Locality) {
    cfg.worst_case_cap = 1.5 * worst_case(make_dor(t)).gamma;
  }
  SymmetricArcDesign design(t, cfg);
  lp::SimplexOptions opts;
  if (k == 8) opts.max_iterations = 1;
  for (const double l : locality_grid(1.0, 2.0, 9)) {
    SCOPED_TRACE("L = " + std::to_string(l));
    design.set_locality_bound(l * hmin);
    EXPECT_LE(design.model().max_violation(design.start_point()), 1e-9);
    const lp::Basis& crash = design.flow_crash_hints();
    ASSERT_FALSE(crash.empty());
    const lp::Solution sol = lp::solve(design.model(), opts, &crash);
    EXPECT_EQ(sol.warm_start, "accepted");
    EXPECT_EQ(sol.phase1_iterations, 0);
    if (k == 8) continue;
    ASSERT_EQ(sol.status, lp::Status::Optimal) << sol.note;
    EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();
    const lp::Solution ref = lp::solve(design.model(), opts);
    ASSERT_EQ(ref.status, lp::Status::Optimal) << ref.note;
    EXPECT_TRUE(ref.certificate.ok()) << ref.certificate.summary();
    EXPECT_NEAR(sol.objective, ref.objective, 1e-9 * (1 + std::abs(ref.objective)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlowCrash, StartPoint,
    ::testing::Combine(::testing::Values(4, 6, 8),
                       ::testing::Values(DesignObjective::WorstCase, DesignObjective::AverageCase,
                                         DesignObjective::Uniform, DesignObjective::Locality)));

// The start routing is the one the bound asks for: the interpolant's H_avg
// is the bound exactly (an equality row holds at it), VAL's worst case is
// the optimal cap/2 load, and at L = 1 on Figure 1 the D4 average of DOR is
// already optimal, so its w is the LP's optimum.
TEST(FlowCrash, StartRoutingMatchesTheBound) {
  const Torus t(6);
  const double hmin = t.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = 1.5 * hmin;  // equality: H_avg must be exactly L
  const SymmetricArcDesign mid(t, cfg);
  EXPECT_LE(mid.model().max_violation(mid.start_point()), 1e-9);

  const TorusRouting val = make_valiant(t);
  cfg.locality_equals = val.avg_path_length();  // VAL's own locality, exactly
  const SymmetricArcDesign at_val(t, cfg);
  EXPECT_LE(at_val.model().max_violation(at_val.start_point()), 1e-9);

  cfg.locality_equals = -1.0;  // no locality row: VAL
  const SymmetricArcDesign free_design(t, cfg);
  const std::vector<double> val_point = free_design.start_point();
  const double val_load = t.ideal_uniform_load() / worst_case_capacity_fraction(val);
  EXPECT_NEAR(free_design.model().objective_value(val_point), val_load, 1e-9);

  cfg.locality_equals = hmin;
  cfg.locality_le = true;
  SymmetricArcDesign at_one(t, cfg);
  const DesignResult opt = at_one.solve();
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  EXPECT_NEAR(at_one.model().objective_value(at_one.start_point()), opt.objective, 1e-9);
}

// A start point that breaks a cap yields no crash basis: the solve takes
// the all-logical start and lands on the same optimum, in the same
// iterations, as a direct solve with no crash. Here the locality objective
// starts at DOR, whose worst case is far above a cap just over the
// worst-case optimum.
TEST(FlowCrash, PointBreakingACapEmitsNoHints) {
  const Torus t(4);
  const OptimalDesign wc = design_worst_case_optimal(t);
  ASSERT_EQ(wc.status, lp::Status::Optimal);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::Locality;
  cfg.worst_case_cap = wc.objective * 1.01;
  SymmetricArcDesign design(t, cfg);
  EXPECT_GT(design.model().max_violation(design.start_point()), 1e-3);
  EXPECT_TRUE(design.flow_crash_hints().empty());

  const DesignResult on = design.solve();
  ASSERT_EQ(on.status, lp::Status::Optimal) << on.note;
  EXPECT_EQ(on.warm_start, "cold");
  const lp::Solution off = lp::solve(design.model());
  ASSERT_EQ(off.status, lp::Status::Optimal) << off.note;
  EXPECT_EQ(on.objective, off.objective);
  EXPECT_EQ(on.iterations, off.iterations);
}

// The permutation sets that stalled LP (15) in phase 1 at k = 8, L = 1
// (Rng(606 + S) for S = 4, 9 and 10; S = 9 took 45,507 iterations from the
// all-slack start). From the crash each solves, certified, with no phase 1,
// well inside a 5,000-iteration cap.
TEST(FlowCrash, StalledPermutationSetsSolveFromTheCrash) {
  const Torus t(8);
  for (const int set : {4, 9, 10}) {
    SCOPED_TRACE("S = " + std::to_string(set));
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::AverageCase;
    cfg.locality_equals = t.mean_min_distance();
    cfg.locality_le = true;
    Rng rng(606 + set);
    for (int i = 0; i < 4; ++i) cfg.samples.push_back(rng.permutation(t.num_nodes()));
    SymmetricArcDesign design(t, cfg);
    lp::SimplexOptions opts;
    opts.max_iterations = 5000;
    const lp::Solution sol = lp::solve(design.model(), opts, &design.flow_crash_hints());
    ASSERT_EQ(sol.status, lp::Status::Optimal) << sol.note;
    EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();
    EXPECT_EQ(sol.warm_start, "accepted");
    EXPECT_EQ(sol.phase1_iterations, 0);
  }
}

// The crash basis is an iteration optimization, never a semantic switch:
// the optimum with and without it must match. lp::solve counts every start
// basis in lp.warmstart.*; the design counts its own crash in lp.crash.*
// too, which must balance (attempts == accepted + repaired + rejected). A
// warm design solve builds no crash and counts only in lp.warmstart.*.
TEST(FlowCrash, ColdSolveMatchesWithAndWithoutHints) {
  auto counter = [](const char* name) {
    return obs::Registry::instance().counter(name).value();
  };
  const Torus t(4);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = 1.4 * t.mean_min_distance();
  cfg.locality_le = true;

  std::int64_t warm_before = counter("lp.warmstart.attempts");
  std::int64_t crash_before = counter("lp.crash.attempts");
  SymmetricArcDesign with(t, cfg);
  const DesignResult on = with.solve();
  ASSERT_EQ(on.status, lp::Status::Optimal);
  EXPECT_EQ(on.warm_start, "crash-accepted");
  EXPECT_EQ(counter("lp.crash.attempts") - crash_before, 1);
  EXPECT_EQ(counter("lp.warmstart.attempts") - warm_before, 1);
  EXPECT_EQ(counter("lp.crash.attempts"),
            counter("lp.crash.accepted") + counter("lp.crash.repaired") +
                counter("lp.crash.rejected"));

  const lp::Solution off = lp::solve(with.model());
  ASSERT_EQ(off.status, lp::Status::Optimal);
  EXPECT_NEAR(on.objective, off.objective, 1e-9 * (1 + std::abs(off.objective)));

  // L = 1.4 is past the k = 4 knee: the warm solve at the looser bound
  // reuses the certified optimum, with no lp::solve and no crash.
  with.set_locality_bound(1.6 * t.mean_min_distance());
  warm_before = counter("lp.warmstart.attempts");
  crash_before = counter("lp.crash.attempts");
  const DesignResult warm = with.solve({}, &on.basis);
  ASSERT_EQ(warm.status, lp::Status::Optimal);
  EXPECT_EQ(warm.warm_start, "reused");
  EXPECT_EQ(counter("lp.warmstart.attempts"), warm_before);
  EXPECT_EQ(counter("lp.crash.attempts"), crash_before);
}

// The design's crash start is an ordinary start basis: a Figure 1 cold
// point solved through SymmetricArcDesign::solve and through lp::solve from
// the same basis takes the same pivots to the same optimum and basis. Only
// the label differs, since the design names its crash.
TEST(FlowCrash, DesignSolveIsLpSolveFromTheCrash) {
  const Torus t(4);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = t.mean_min_distance();
  cfg.locality_le = true;
  SymmetricArcDesign design(t, cfg);
  const lp::SimplexOptions opts;
  const lp::Solution direct = lp::solve(design.model(), opts, &design.flow_crash_hints());
  const DesignResult res = design.solve(opts);
  ASSERT_EQ(direct.status, lp::Status::Optimal) << direct.note;
  ASSERT_EQ(res.status, lp::Status::Optimal) << res.note;
  EXPECT_EQ(res.iterations, direct.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(res.objective),
            std::bit_cast<std::uint64_t>(direct.objective));
  EXPECT_EQ(res.basis.basic, direct.basis.basic);
  EXPECT_EQ(res.basis.stat, direct.basis.stat);
  EXPECT_EQ(direct.warm_start, "accepted");
  EXPECT_EQ(res.warm_start, "crash-accepted");
}

// A garbage start basis handed straight to lp::solve must degrade through
// the repair/reject ladder and still land on the certified cold optimum.
TEST(FlowCrash, GarbageHintsNeverChangeTheAnswer) {
  const Torus t(3);
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  SymmetricArcDesign design(t, cfg);
  const lp::Model& m = design.model();
  lp::SimplexOptions opts;
  const lp::Solution cold = lp::solve(m, opts);
  ASSERT_EQ(cold.status, lp::Status::Optimal);

  lp::Basis junk = cold.basis;  // out-of-range status bytes: repaired
  junk.stat.assign(junk.stat.size(), 7);
  const lp::Solution sol = lp::solve(m, opts, &junk);
  ASSERT_EQ(sol.status, lp::Status::Optimal);
  EXPECT_EQ(sol.warm_start, "repaired");
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9 * (1 + std::abs(cold.objective)));
  EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();

  lp::Basis bad = cold.basis;  // duplicate and out-of-range columns: rejected
  bad.basic[0] = m.num_cols() + 10 * m.num_rows();
  if (m.num_rows() > 2) bad.basic[2] = bad.basic[1];
  const lp::Solution sol2 = lp::solve(m, opts, &bad);
  ASSERT_EQ(sol2.status, lp::Status::Optimal);
  EXPECT_EQ(sol2.warm_start, "rejected");
  EXPECT_NEAR(sol2.objective, cold.objective, 1e-9 * (1 + std::abs(cold.objective)));

  lp::Basis short_basis;  // wrong length: must be rejected
  short_basis.basic = {0, 1};
  const lp::Solution sol3 = lp::solve(m, opts, &short_basis);
  ASSERT_EQ(sol3.status, lp::Status::Optimal);
  EXPECT_NEAR(sol3.objective, cold.objective, 1e-9 * (1 + std::abs(cold.objective)));
}

TEST(FlowDecomposition, SplitsParallelFlows) {
  const Torus t(4);
  const int e = t.node(1, 1);
  std::vector<double> flow(t.num_channels(), 0.0);
  // Half via (1,0), half via (0,1).
  flow[t.channel(t.node(0, 0), Dir::PX)] = 0.5;
  flow[t.channel(t.node(1, 0), Dir::PY)] = 0.5;
  flow[t.channel(t.node(0, 0), Dir::PY)] = 0.5;
  flow[t.channel(t.node(0, 1), Dir::PX)] = 0.5;
  const auto paths = decompose_flow(t, e, flow);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NEAR(paths[0].weight + paths[1].weight, 1.0, 1e-12);
}

}  // namespace
}  // namespace tcr
