// Table 1 algorithms: validity (eq. 1), minimality/locality facts, and the
// worst-case / uniform throughput relations the paper states.
#include <gtest/gtest.h>

#include "tcr/metrics/loads.hpp"
#include "tcr/util/check.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/rlb.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/traffic/patterns.hpp"

namespace tcr {
namespace {

class AllAlgorithms : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Radices, AllAlgorithms, ::testing::Values(3, 4, 5, 6, 8));

TEST_P(AllAlgorithms, AreValidObliviousRoutings) {
  const Torus t(GetParam());
  for (auto make : {make_dor, make_valiant, make_ival, make_romm, make_rlb, make_rlbth}) {
    const TorusRouting r = make(t);
    EXPECT_NO_THROW(r.validate()) << r.name() << " k=" << GetParam();
  }
}

TEST_P(AllAlgorithms, MinimalAlgorithmsHaveUnitLocality) {
  const Torus t(GetParam());
  EXPECT_NEAR(make_dor(t).normalized_locality(), 1.0, 1e-9);
  EXPECT_NEAR(make_romm(t).normalized_locality(), 1.0, 1e-9);
}

TEST_P(AllAlgorithms, DorAndRommRealizeCapacityOnUniform) {
  const Torus t(GetParam());
  EXPECT_NEAR(uniform_capacity_fraction(make_dor(t)), 1.0, 1e-9);
  EXPECT_NEAR(uniform_capacity_fraction(make_romm(t)), 1.0, 1e-9);
  // VAL halves uniform throughput (two uniform phases); self pairs use the
  // empty path, hence the (N-1)/N correction.
  const double n = t.num_nodes();
  EXPECT_NEAR(uniform_capacity_fraction(make_valiant(t)), n / (2.0 * (n - 1.0)), 1e-9);
}

TEST(Valiant, LocalityIsTwiceMinimalOverNonSelfPairs) {
  const Torus t(8);
  const TorusRouting val = make_valiant(t);
  // Every pair routes through a uniformly random intermediate: expected
  // length = 2 * mean_min_distance for each (s, d), so the overall average
  // over all N^2 pairs is 2 * Hmin * (N-1)/N (self pairs use the empty path).
  const int n = t.num_nodes();
  const double expect = 2.0 * (n - 1.0) / n;
  EXPECT_NEAR(val.normalized_locality(), expect, 1e-9);
}

TEST(Valiant, WorstCaseIsHalfCapacityEvenRadix) {
  for (int k : {4, 6, 8}) {
    const Torus t(k);
    EXPECT_NEAR(worst_case_capacity_fraction(make_valiant(t)), 0.5, 1e-6) << "k=" << k;
  }
}

TEST(Ival, KeepsValiantWorstCaseWithBetterLocality) {
  const Torus t(8);
  const TorusRouting ival = make_ival(t);
  const TorusRouting val = make_valiant(t);
  EXPECT_NEAR(worst_case_capacity_fraction(ival), 0.5, 1e-6);
  EXPECT_LT(ival.normalized_locality(), val.normalized_locality());
  // Paper §5.2: about 1.61x minimal on the 8-ary 2-cube (~19-20% under VAL).
  EXPECT_NEAR(ival.normalized_locality(), 1.61, 0.06);
}

TEST(Ival, PathsHaveAtMostTwoTurnsAndNoChannelRevisit) {
  const Torus t(6);
  const TorusRouting ival = make_ival(t);
  for (int e = 1; e < t.num_nodes(); ++e) {
    for (const auto& wp : ival.paths(e)) {
      EXPECT_LE(count_turns(t, wp.path), 2);
      EXPECT_TRUE(path_channel_simple(wp.path));
      EXPECT_TRUE(path_node_simple(t, wp.path));
    }
  }
}

// make_dor() builds each path's channels from the ring choices directly;
// they must equal the paths path_from_walk() makes of dor_walks(), in the
// same order and with the same weights, at odd and even radices.
TEST(Dor, PathsEqualTheWalkBuiltPaths) {
  for (const int k : {3, 4, 5, 6, 7, 8, 9, 16}) {
    const Torus t(k);
    const TorusRouting dor = make_dor(t);
    TorusRouting walked(t, "DOR");
    for (int e = 1; e < t.num_nodes(); ++e) {
      for (const auto& w : detail::dor_walks(t, 0, e, /*x_first=*/true)) {
        walked.add_path(e, path_from_walk(t, w.walk), w.prob);
      }
    }
    for (int e = 1; e < t.num_nodes(); ++e) {
      const auto& got = dor.paths(e);
      const auto& want = walked.paths(e);
      ASSERT_EQ(got.size(), want.size()) << "k " << k << " offset " << e;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].path, want[i].path) << "k " << k << " offset " << e << " path " << i;
        EXPECT_EQ(got[i].weight, want[i].weight) << "k " << k << " offset " << e << " path " << i;
      }
    }
  }
}

TEST(Dor, WorstCaseBeatsOtherMinimalAlgorithms) {
  // Paper Figure 1: DOR attains the best worst-case of any minimal algorithm.
  const Torus t(8);
  const double dor = worst_case_capacity_fraction(make_dor(t));
  const double romm = worst_case_capacity_fraction(make_romm(t));
  EXPECT_GT(dor, romm - 1e-9);
  EXPECT_LT(dor, 0.5);
  EXPECT_GT(dor, 0.2);
}

TEST(Dor, TornadoLoadIsExact) {
  // Tornado on even k sends every node ceil(k/2)-1 = k/2-1 hops in +X; DOR
  // keeps it single-path, loading each +X channel with (k/2 - 1) flows.
  const Torus t(8);
  const auto gamma = channel_loads(make_dor(t), tornado_permutation(t));
  double gmax = 0.0;
  for (double g : gamma) gmax = std::max(gmax, g);
  EXPECT_NEAR(gmax, 3.0, 1e-9);
}

TEST(Rlb, TradesLocalityForWorstCase) {
  const Torus t(8);
  const TorusRouting rlb = make_rlb(t);
  const TorusRouting rlbth = make_rlbth(t);
  const TorusRouting dor = make_dor(t);
  // Non-minimal on purpose...
  EXPECT_GT(rlb.normalized_locality(), 1.05);
  EXPECT_LT(rlb.normalized_locality(), 2.0);
  // ...to beat DOR's worst case (paper Figure 1 places RLB right of DOR).
  EXPECT_GT(worst_case_capacity_fraction(rlb), worst_case_capacity_fraction(dor));
  // The threshold variant gives back some worst-case for locality.
  EXPECT_LT(rlbth.normalized_locality(), rlb.normalized_locality());
  EXPECT_LE(worst_case_capacity_fraction(rlbth), worst_case_capacity_fraction(rlb) + 1e-9);
}

TEST(Rlb, BalancesRingLoadUnderUniform) {
  // The (k-d)/k rule equalizes channel load ring-wide: uniform traffic loads
  // every X channel equally.
  const Torus t(8);
  const auto gamma = channel_loads(make_rlb(t), uniform_traffic(t.num_nodes()));
  double lo = 1e9, hi = 0.0;
  for (int c = 0; c < t.num_channels(); ++c) {
    lo = std::min(lo, gamma[c]);
    hi = std::max(hi, gamma[c]);
  }
  EXPECT_NEAR(lo, hi, 1e-9);
}

TEST(Routing, PairPathsAreTranslatedCanonicalPaths) {
  const Torus t(5);
  const TorusRouting dor = make_dor(t);
  const int s = t.node(2, 3), d = t.node(4, 1);
  const auto pair_paths = dor.paths_for_pair(s, d);
  const auto& canon = dor.paths(t.offset(s, d));
  ASSERT_EQ(pair_paths.size(), canon.size());
  for (std::size_t i = 0; i < canon.size(); ++i) {
    EXPECT_EQ(pair_paths[i].path.src, s);
    EXPECT_EQ(pair_paths[i].path.dst, d);
    EXPECT_EQ(pair_paths[i].path.length(), canon[i].path.length());
    EXPECT_DOUBLE_EQ(pair_paths[i].weight, canon[i].weight);
  }
}

TEST(Routing, AddPathValidatesAndMerges) {
  const Torus t(4);
  TorusRouting r(t, "test");
  const int e = t.node(1, 0);
  Path p = path_from_walk(t, {0, e});
  r.add_path(e, p, 0.5);
  r.add_path(e, p, 0.5);
  EXPECT_EQ(r.paths(e).size(), 1u);  // merged
  EXPECT_DOUBLE_EQ(r.total_probability(e), 1.0);
  EXPECT_THROW(r.add_path(e, p, -0.1), Error);
  Path wrong = path_from_walk(t, {0, t.node(0, 1)});
  EXPECT_THROW(r.add_path(e, wrong, 0.1), Error);
}

TEST(Routing, NormalizeRescales) {
  const Torus t(4);
  TorusRouting r(t, "test");
  for (int e = 1; e < t.num_nodes(); ++e) {
    const auto walks = detail::dor_walks(t, 0, e, true);
    for (const auto& w : walks) r.add_path(e, path_from_walk(t, w.walk), 2.0 * w.prob);
  }
  r.normalize();
  EXPECT_NO_THROW(r.validate());
}

}  // namespace
}  // namespace tcr
