#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tcr/traffic/patterns.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/traffic/traffic.hpp"
#include "tcr/util/check.hpp"

namespace tcr {
namespace {

TEST(Traffic, UniformIsDoublyStochastic) {
  const auto u = uniform_traffic(16);
  EXPECT_TRUE(is_doubly_stochastic(u));
  EXPECT_FALSE(is_permutation(u));
}

TEST(Traffic, PermutationMatrixChecks) {
  const auto p = permutation_matrix({2, 0, 1});
  EXPECT_TRUE(is_doubly_stochastic(p));
  EXPECT_TRUE(is_permutation(p));
  EXPECT_DOUBLE_EQ(p(0, 2), 1.0);
  EXPECT_THROW(permutation_matrix({0, 0, 1}), Error);
}

TEST(Patterns, NamedPermutationsAreBijective) {
  const Torus t(6);
  for (const char* name : {"transpose", "tornado", "complement", "shift", "bitrev", "rotate"}) {
    const auto perm = named_permutation(t, name);
    EXPECT_TRUE(is_permutation(permutation_matrix(perm))) << name;
  }
  EXPECT_THROW(named_permutation(t, "nope"), Error);
}

TEST(Patterns, TornadoShiftsHalfRing) {
  const Torus t(8);
  const auto perm = tornado_permutation(t);
  // ceil(8/2) - 1 = 3 hops in +X.
  EXPECT_EQ(perm[t.node(1, 2)], t.node(4, 2));
  EXPECT_EQ(perm[t.node(6, 0)], t.node(1, 0));
}

TEST(Patterns, TransposeFixesDiagonal) {
  const Torus t(5);
  const auto perm = transpose_permutation(t);
  EXPECT_EQ(perm[t.node(3, 3)], t.node(3, 3));
  EXPECT_EQ(perm[t.node(1, 4)], t.node(4, 1));
}

TEST(Patterns, BitReverseIsPermutationForAnyN) {
  for (int n : {1, 2, 7, 9, 16, 36, 64, 100}) {
    EXPECT_TRUE(is_permutation(permutation_matrix(bit_reverse_permutation(n)))) << n;
  }
  // Power-of-two case reduces to the classic bit reversal.
  const auto p8 = bit_reverse_permutation(8);
  EXPECT_EQ(p8[1], 4);
  EXPECT_EQ(p8[3], 6);
  EXPECT_EQ(p8[7], 7);
}

TEST(Patterns, RotationHasOrderFour) {
  const Torus t(5);
  const auto p = rotation_permutation(t);
  for (int n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(p[p[p[p[n]]]], n);
  }
}

TEST(Sampler, BirkhoffSamplesAreDoublyStochastic) {
  Rng rng(42);
  for (int j : {1, 2, 4, 8}) {
    const auto m = birkhoff_sample(rng, 12, j);
    EXPECT_LT(doubly_stochastic_error(m), 1e-9) << "J=" << j;
    if (j == 1) {
      EXPECT_TRUE(is_permutation(m));
    }
  }
}

TEST(Sampler, SinkhornConverges) {
  Rng rng(43);
  const auto m = sinkhorn_sample(rng, 20);
  EXPECT_LT(doubly_stochastic_error(m), 1e-6);
  // Dense interior point: no entry should be exactly zero or one.
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) {
      EXPECT_GT(m(i, j), 0.0);
      EXPECT_LT(m(i, j), 0.9);
    }
}

TEST(Sampler, SinkhornRowColSumsWithinTightTolerance) {
  // Regression: the old fixed-iteration Sinkhorn left residuals around 1e-5
  // on larger matrices. The sampler now iterates to tolerance and finishes
  // with an exact row normalization, so both sum families must sit at
  // rounding level for every size and seed.
  for (const int n : {8, 20, 64, 100}) {
    for (const std::uint64_t seed : {1ULL, 43ULL, 20260806ULL}) {
      Rng rng(seed);
      const auto m = sinkhorn_sample(rng, n);
      double err = 0.0;
      for (const double s : m.row_sums()) err = std::max(err, std::abs(s - 1.0));
      for (const double s : m.col_sums()) err = std::max(err, std::abs(s - 1.0));
      EXPECT_LE(err, 1e-10) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Sampler, SampleSetKindsAndDeterminism) {
  Rng a(7), b(7);
  const auto sa = sample_traffic_set(a, 9, 5, "perm");
  const auto sb = sample_traffic_set(b, 9, 5, "perm");
  ASSERT_EQ(sa.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    for (int r = 0; r < 9; ++r)
      for (int c = 0; c < 9; ++c) EXPECT_DOUBLE_EQ(sa[i](r, c), sb[i](r, c));
  }
  Rng c(8);
  EXPECT_EQ(sample_traffic_set(c, 9, 3, "birkhoff4").size(), 3u);
  EXPECT_EQ(sample_traffic_set(c, 9, 3, "sinkhorn").size(), 3u);
  EXPECT_THROW(sample_traffic_set(c, 9, 1, "bogus"), Error);
}

}  // namespace
}  // namespace tcr
