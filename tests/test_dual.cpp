// The Appendix dual (19): strong duality against the primal path designs,
// and validity of the Birkhoff adversary certificate.
#include <gtest/gtest.h>

#include "tcr/core/dual.hpp"
#include "tcr/core/path_design.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/two_turn.hpp"
#include "tcr/routing/dor.hpp"

namespace tcr {
namespace {

PathFamily minimal_family() {
  return [](const Torus& t, int e) { return enumerate_minimal_paths(t, e); };
}

TEST(DualDesign, StrongDualityMinimalK3) {
  const Torus t(3);
  PathDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.lexicographic_locality = false;
  const auto primal = design_over_paths(t, "MIN-WC", minimal_family(), cfg);
  ASSERT_EQ(primal.status, lp::Status::Optimal);

  const auto dual = dual_worst_case_design(t, minimal_family());
  ASSERT_EQ(dual.status, lp::Status::Optimal);
  EXPECT_NEAR(dual.objective, primal.objective, 1e-5);
}

TEST(DualDesign, CertificateIsBirkhoffBlend) {
  const Torus t(3);
  const auto dual = dual_worst_case_design(t, minimal_family());
  ASSERT_EQ(dual.status, lp::Status::Optimal);

  // sum_c phi_c = 1 and each A^c has row/column sums phi_c with a >= 0 —
  // i.e. A^c / phi_c is doubly stochastic: a blend of permutations
  // (Birkhoff), exactly the paper's interpretation of the dual.
  double total = 0.0;
  for (double p : dual.phi) {
    EXPECT_GE(p, -1e-9);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);

  for (int c = 0; c < t.num_channels(); ++c) {
    const auto& a = dual.adversary[c];
    for (double rs : a.row_sums()) EXPECT_NEAR(rs, dual.phi[c], 1e-6);
    for (double cs : a.col_sums()) EXPECT_NEAR(cs, dual.phi[c], 1e-6);
    for (int i = 0; i < a.rows(); ++i)
      for (int j = 0; j < a.cols(); ++j) EXPECT_GE(a(i, j), -1e-9);
  }
}

TEST(DualDesign, ObjectiveBoundsAnyFamilyAlgorithm) {
  // Weak duality: the dual optimum is a lower bound on gamma_wc of *every*
  // routing over the family — in particular DOR's and ROMM's, whose paths
  // are subsets of the minimal family.
  const Torus t(3);
  const auto dual = dual_worst_case_design(t, minimal_family());
  ASSERT_EQ(dual.status, lp::Status::Optimal);
  EXPECT_LE(dual.objective, worst_case(make_dor(t)).gamma + 1e-6);
}

// The dual over the full 2-turn family is exponentially more degenerate and
// left out of the default suite; it is exercised (and strong duality holds)
// at higher iteration budgets.

}  // namespace
}  // namespace tcr
