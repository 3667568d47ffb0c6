// 2TURN / 2TURNA / minimal-optimal designs (paper §5.2, §5.4), and the
// design LPs' shared blocks: their models pinned and their sample checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "tcr/core/design.hpp"
#include "tcr/core/path_design.hpp"
#include "tcr/routing/two_turn.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/util/check.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

TEST(TwoTurnDesign, MatchesUnrestrictedOptimumAtK4) {
  // Paper Figure 4: "for the k = 4 and k = 6 cases, 2TURN exactly matches
  // the optimal" — both in worst-case throughput and locality.
  const Torus t(4);
  const auto two_turn = design_two_turn(t);
  ASSERT_EQ(two_turn.status, lp::Status::Optimal);
  EXPECT_NEAR(two_turn.objective, 2.0 * t.ideal_uniform_load(), 1e-5);

  const auto opt = design_worst_case_optimal(t);
  ASSERT_EQ(opt.status, lp::Status::Optimal);
  EXPECT_NEAR(two_turn.routing.normalized_locality(), opt.locality_norm, 1e-4);
}

TEST(TwoTurnDesign, ValidWithHalfCapacityWorstCase) {
  for (int k : {3, 4, 5}) {
    const Torus t(k);
    const auto res = design_two_turn(t);
    ASSERT_EQ(res.status, lp::Status::Optimal) << "k=" << k;
    EXPECT_NO_THROW(res.routing.validate(1e-5));
    // Exact worst case of the produced routing equals the LP optimum.
    EXPECT_NEAR(worst_case(res.routing).gamma, res.objective, 1e-4) << "k=" << k;
    // Better locality than IVAL at the same worst case.
    const TorusRouting ival = make_ival(t);
    EXPECT_LE(res.routing.normalized_locality(), ival.normalized_locality() + 1e-6)
        << "k=" << k;
    // All paths in the produced routing respect the 2TURN structure.
    for (int e = 1; e < t.num_nodes(); ++e) {
      for (const auto& wp : res.routing.paths(e)) {
        EXPECT_LE(count_turns(t, wp.path), 2);
        EXPECT_FALSE(has_u_turn(t, wp.path));
      }
    }
  }
}

TEST(TwoTurnADesign, BeatsOrMatches2TurnOnAverageObjective) {
  const Torus t(4);
  Rng rng(11);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(rng.permutation(t.num_nodes()));

  const auto avg_design = design_two_turn_avg(t, samples);
  ASSERT_EQ(avg_design.status, lp::Status::Optimal);
  EXPECT_NO_THROW(avg_design.routing.validate(1e-5));

  const auto wc_design = design_two_turn(t);
  ASSERT_EQ(wc_design.status, lp::Status::Optimal);
  double wc_mean = 0.0;
  for (const auto& perm : samples) wc_mean += max_channel_load(wc_design.routing, perm);
  wc_mean /= samples.size();
  EXPECT_LE(avg_design.objective, wc_mean + 1e-6);

  // The reported objective matches a direct evaluation on the samples.
  double mean = 0.0;
  for (const auto& perm : samples) mean += max_channel_load(avg_design.routing, perm);
  mean /= samples.size();
  EXPECT_NEAR(mean, avg_design.objective, 1e-4);
}

TEST(MinimalAvgDesign, StaysMinimalAndBeatsRommSamples) {
  // Paper §5.4: optimizing the average case over minimal paths "produces a
  // routing algorithm that matches the performance of ROMM".
  const Torus t(4);
  Rng rng(12);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(rng.permutation(t.num_nodes()));

  const auto res = design_minimal_avg(t, samples);
  ASSERT_EQ(res.status, lp::Status::Optimal);
  EXPECT_NEAR(res.routing.normalized_locality(), 1.0, 1e-6);

  const TorusRouting romm = make_romm(t);
  double romm_mean = 0.0;
  for (const auto& perm : samples) romm_mean += max_channel_load(romm, perm);
  romm_mean /= samples.size();
  // The LP optimum over minimal paths can only be as good or better on its
  // own samples; "matches ROMM" means the gap is small.
  EXPECT_LE(res.objective, romm_mean + 1e-6);
  EXPECT_GT(res.objective, 0.5 * romm_mean);
}

TEST(PathDesign, LexicographicSecondStagePreservesObjective) {
  const Torus t(4);
  PathDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.lexicographic_locality = false;
  const auto stage1_only = design_over_paths(
      t, "2TURN-s1", [](const Torus& tt, int e) { return enumerate_two_turn_paths(tt, e); },
      cfg);
  ASSERT_EQ(stage1_only.status, lp::Status::Optimal);

  const auto full = design_two_turn(t);
  ASSERT_EQ(full.status, lp::Status::Optimal);
  EXPECT_NEAR(stage1_only.objective, full.objective, 1e-6);
  // Stage 2 can only improve locality.
  EXPECT_LE(full.routing.avg_path_length(), stage1_only.routing.avg_path_length() + 1e-6);
  // And the exact worst case of the final routing stays at the optimum.
  EXPECT_NEAR(worst_case(full.routing).gamma, full.objective, 1e-4);
}

// ---- Model-identity pin ----------------------------------------------------
// Every design LP at k = 4, reduced to its size and an FNV-1a hash of its
// columns (bounds, cost), rows (type, rhs) and coefficients sorted by row and
// then column. The arc-flow LP (8)/(15) blocks and the path LPs share one
// builder; a change to it that should not alter any model must leave all of
// these exactly as recorded.
std::uint64_t model_hash(const lp::Model& m) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  for (int j = 0; j < m.num_cols(); ++j) {
    mix(bits(m.lower(j)));
    mix(bits(m.upper(j)));
    mix(bits(m.cost(j)));
  }
  for (int i = 0; i < m.num_rows(); ++i) {
    mix(static_cast<std::uint64_t>(m.row_type(i)));
    mix(bits(m.rhs(i)));
  }
  std::vector<Triplet> t = m.triplets();
  std::sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return std::tie(a.row, a.col, a.value) < std::tie(b.row, b.col, b.value);
  });
  for (const Triplet& x : t) {
    mix(static_cast<std::uint64_t>(x.row));
    mix(static_cast<std::uint64_t>(x.col));
    mix(bits(x.value));
  }
  return h;
}

struct ModelPin {
  std::string name;
  int rows, cols;
  std::size_t terms;
  std::uint64_t hash;
};

void expect_pinned(const ModelPin& pin, const lp::Model& m) {
  EXPECT_EQ(m.num_rows(), pin.rows) << pin.name;
  EXPECT_EQ(m.num_cols(), pin.cols) << pin.name;
  EXPECT_EQ(m.num_terms(), pin.terms) << pin.name;
  EXPECT_EQ(model_hash(m), pin.hash) << pin.name;
}

TEST(DesignLP, ModelsArePinnedAtK4) {
  const Torus t(4);
  Rng rng(606);
  std::vector<std::vector<int>> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(rng.permutation(t.num_nodes()));
  const auto cfg = [&](DesignObjective objective) {
    SymmetricDesignConfig c;
    c.objective = objective;
    return c;
  };
  const auto arc = [&](const ModelPin& pin, const SymmetricDesignConfig& c) {
    expect_pinned(pin, SymmetricArcDesign(t, c).model());
  };

  auto c = cfg(DesignObjective::WorstCase);
  arc({"arc.worst_case", 337, 181, 1425, 0x733f3525db9b4ec6ull}, c);
  c.fold_dihedral = false;
  arc({"arc.worst_case.unfolded", 1268, 1089, 5060, 0x81d3a707d53439a2ull}, c);
  c = cfg(DesignObjective::WorstCase);
  c.locality_equals = 2.5;
  c.locality_le = true;
  arc({"arc.lp10", 338, 181, 2385, 0xc209c6236a87cb2aull}, c);
  arc({"arc.uniform", 81, 149, 789, 0xbf99dd22e60fbf5full}, cfg(DesignObjective::Uniform));
  c = cfg(DesignObjective::AverageCase);
  c.samples = samples;
  arc({"arc.average_case", 336, 152, 4864, 0x58fb95a2da10364full}, c);
  c.fold_dihedral = false;
  arc({"arc.average_case.unfolded", 496, 964, 6144, 0x0ad319603f38fa5bull}, c);
  c.fold_dihedral = true;
  c.locality_equals = 2.5;
  c.locality_le = true;
  arc({"arc.lp15", 337, 152, 5824, 0xf598699b369e3883ull}, c);
  // The lexicographic stage 2 under each cap.
  c = cfg(DesignObjective::Locality);
  c.worst_case_cap = 0.75;
  arc({"arc.locality.worst_case_cap", 337, 181, 1425, 0x40186edbb34d41efull}, c);
  c = cfg(DesignObjective::Locality);
  c.uniform_cap = 0.75;
  arc({"arc.locality.uniform_cap", 81, 149, 789, 0x927b0e03f0c9512eull}, c);
  c = cfg(DesignObjective::Locality);
  c.samples = samples;
  c.average_cap = 0.75;
  arc({"arc.locality.average_cap", 337, 152, 4868, 0x835adaacaeb7afc6ull}, c);

  // 2TURN, 2TURNA and MIN-A, stage 1 and stage 2.
  const PathFamily two_turn = enumerate_two_turn_paths;
  const PathFamily minimal = enumerate_minimal_paths;
  const auto path = [&](const ModelPin& pin, const PathFamily& family,
                        const SymmetricDesignConfig& pc) {
    expect_pinned(pin, PathDesign(t, family, pc).model());
  };
  path({"2turn.stage1", 262, 99, 1443, 0x56883e5b1b2ef18dull}, two_turn,
       cfg(DesignObjective::WorstCase));
  c = cfg(DesignObjective::Locality);
  c.worst_case_cap = 0.75;
  path({"2turn.stage2", 262, 99, 1443, 0x8cda8cb460d860fcull}, two_turn, c);
  c = cfg(DesignObjective::AverageCase);
  c.samples = samples;
  path({"2turna.stage1", 261, 70, 12264, 0xe532a6abf3525546ull}, two_turn, c);
  path({"mina.stage1", 261, 13, 1377, 0x6525b0209764ca75ull}, minimal, c);
  c = cfg(DesignObjective::Locality);
  c.samples = samples;
  c.average_cap = 0.75;
  path({"2turna.stage2", 262, 70, 12268, 0x56bcaf26e0dde54bull}, two_turn, c);
  path({"mina.stage2", 262, 13, 1381, 0xdf4252e3476ad948ull}, minimal, c);
}

TEST(DesignLP, RejectsMalformedSamples) {
  // Each sample must name one destination in [0, N) per source: a short
  // sample and an out-of-range destination are errors in both designs,
  // not reads past the end or rows for a node that does not exist.
  const Torus t(3);
  std::vector<int> out_of_range(t.num_nodes());
  for (int s = 0; s < t.num_nodes(); ++s) out_of_range[s] = s;
  out_of_range.back() = 40;
  for (const std::vector<int>& bad : {std::vector<int>{0, 1, 2, 3}, out_of_range}) {
    EXPECT_THROW(design_two_turn_avg(t, {bad}), Error);
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::AverageCase;
    cfg.samples = {bad};
    EXPECT_THROW((SymmetricArcDesign{t, cfg}), Error);
  }
}

}  // namespace
}  // namespace tcr
