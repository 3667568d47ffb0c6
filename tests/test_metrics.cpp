// Channel loads (eq. 2/3), throughput (eq. 4), worst-case via matching
// (eq. 7 / [11]) and the sampled average case (eq. 9).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tcr/metrics/average_case.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/rlb.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/traffic/patterns.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

TEST(Loads, UniformMatchesDirectComputation) {
  for (int k : {3, 4, 5}) {
    const Torus t(k);
    const TorusRouting dor = make_dor(t);
    const auto gamma = channel_loads(dor, uniform_traffic(t.num_nodes()));
    double gmax = 0.0;
    for (double g : gamma) gmax = std::max(gmax, g);
    EXPECT_NEAR(gmax, uniform_max_load(dor), 1e-9) << "k=" << k;
    EXPECT_NEAR(gmax, t.ideal_uniform_load(), 1e-9) << "k=" << k;
  }
}

TEST(Loads, PermutationOverloadAgreesWithMatrix) {
  const Torus t(5);
  const TorusRouting dor = make_dor(t);
  const auto perm = tornado_permutation(t);
  const auto g1 = channel_loads(dor, perm);
  const auto g2 = channel_loads(dor, permutation_matrix(perm));
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_NEAR(g1[i], g2[i], 1e-9);
}

// Reference for channel_loads(): eq. 2 in its direct form, each (source,
// destination) pair's canonical load-table row added channel by channel into
// its translated place. channel_loads() sums each source in the canonical
// frame and translates once, so the two agree to rounding.
std::vector<double> channel_loads_oracle(const TorusRouting& r, const TrafficMatrix& lambda) {
  const Torus& t = r.torus();
  const int n = t.num_nodes(), nc = t.num_channels();
  const DenseMatrix& l0 = r.load_table();
  std::vector<double> gamma(static_cast<std::size_t>(nc), 0.0);
  for (int s = 0; s < n; ++s) {
    for (int e = 0; e < n; ++e) {
      const double w = lambda(s, t.translate_node(s, e));
      if (w == 0.0) continue;
      const double* row = l0.row(e);
      for (int c = 0; c < nc; ++c) {
        if (row[c] != 0.0) gamma[t.translate_channel(c, s)] += w * row[c];
      }
    }
  }
  return gamma;
}

TEST(Loads, KernelMatchesOracleOnTableOneAlgorithms) {
  const Torus t(6);
  const std::vector<TorusRouting> algos = {make_dor(t),     make_romm(t),    make_rlb(t),
                                           make_rlbth(t),   make_valiant(t), make_ival(t)};
  Rng rng(31);
  std::vector<TrafficMatrix> samples = sample_traffic_set(rng, t.num_nodes(), 6, "sinkhorn");
  for (const auto& m : sample_traffic_set(rng, t.num_nodes(), 6, "perm")) samples.push_back(m);
  int compared = 0;
  for (const TorusRouting& r : algos) {
    for (const TrafficMatrix& lambda : samples) {
      const auto got = channel_loads(r, lambda);
      const auto want = channel_loads_oracle(r, lambda);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t c = 0; c < got.size(); ++c) {
        EXPECT_LE(std::abs(got[c] - want[c]), 1e-12 * std::abs(want[c])) << "channel " << c;
        compared += want[c] != 0.0;
      }
    }
  }
  EXPECT_GT(compared, 10000);
}

TEST(Loads, TotalLoadEqualsTotalHops) {
  // Conservation: sum of channel loads = sum over pairs of expected hops.
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const auto gamma = channel_loads(dor, uniform_traffic(t.num_nodes()));
  double total = 0.0;
  for (double g : gamma) total += g;
  EXPECT_NEAR(total, dor.avg_path_length() * t.num_nodes(), 1e-9);  // N * H_avg
}

TEST(Loads, ThroughputIsReciprocal) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const auto u = uniform_traffic(t.num_nodes());
  EXPECT_NEAR(throughput(dor, u) * max_channel_load(dor, u), 1.0, 1e-12);
}

TEST(WorstCase, DominatesRandomPermutationSampling) {
  // gamma_wc from the Hungarian matching must upper-bound the load of every
  // sampled permutation, and the witness permutation must attain it.
  const Torus t(3);
  const TorusRouting dor = make_dor(t);
  const auto wc = worst_case(dor);
  Rng rng(77);
  double best_sampled = 0.0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto perm = rng.permutation(t.num_nodes());
    const double g = max_channel_load(dor, perm);
    ASSERT_LE(g, wc.gamma + 1e-9);
    best_sampled = std::max(best_sampled, g);
  }
  EXPECT_NEAR(max_channel_load(dor, wc.permutation), wc.gamma, 1e-9);
  // Random search should get reasonably close on a 9-node torus.
  EXPECT_GT(best_sampled, 0.8 * wc.gamma);
}

TEST(WorstCase, WitnessPermutationAchievesGamma) {
  for (int k : {3, 4, 6}) {
    const Torus t(k);
    for (auto make : {make_dor, make_valiant}) {
      const TorusRouting r = make(t);
      const auto wc = worst_case(r);
      // Achievability: applying the witness reproduces gamma_wc (it may hit
      // it on a different channel of the same class).
      EXPECT_NEAR(max_channel_load(r, wc.permutation), wc.gamma, 1e-9)
          << r.name() << " k=" << k;
    }
  }
}

TEST(WorstCase, DominatesEveryNamedPattern) {
  const Torus t(6);
  const TorusRouting dor = make_dor(t);
  const double gamma_wc = worst_case(dor).gamma;
  for (const char* name : {"transpose", "tornado", "complement", "shift"}) {
    EXPECT_GE(gamma_wc + 1e-9, max_channel_load(dor, named_permutation(t, name))) << name;
  }
  EXPECT_GE(gamma_wc + 1e-9, uniform_max_load(dor));  // permutations dominate U
}

TEST(WorstCase, PairLoadMatrixRowsAreTranslations) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const int c0 = t.channel(0, Dir::PX);
  const DenseMatrix w = pair_load_matrix(dor, c0);
  const DenseMatrix& l0 = dor.load_table();
  for (int s = 0; s < t.num_nodes(); ++s) {
    for (int d = 0; d < t.num_nodes(); ++d) {
      const int e = t.offset(s, d);
      const int ct = t.translate_channel(c0, t.negate_node(s));
      EXPECT_DOUBLE_EQ(w(s, d), l0(e, ct));
    }
  }
}

TEST(AverageCase, ApproximationCloseToTrueMean) {
  // Paper §3.3: the arithmetic-mean approximation is within a few percent of
  // the true mean throughput.
  const Torus t(4);
  Rng rng(5);
  const auto samples = sample_traffic_set(rng, t.num_nodes(), 60, "sinkhorn");
  for (auto make : {make_dor, make_valiant, make_ival}) {
    const TorusRouting r = make(t);
    const auto res = average_case(r, samples);
    EXPECT_GT(res.approx_throughput, 0.0);
    EXPECT_NEAR(res.approx_throughput / res.true_throughput, 1.0, 0.10) << r.name();
    // Jensen: mean of reciprocals >= reciprocal of mean.
    EXPECT_GE(res.true_throughput + 1e-12, res.approx_throughput) << r.name();
  }
}

TEST(AverageCase, ParallelMatchesSequential) {
  const Torus t(4);
  Rng rng(6);
  const auto samples = sample_traffic_set(rng, t.num_nodes(), 16, "perm");
  const TorusRouting dor = make_dor(t);
  const auto seq = average_case(dor, samples);
  ThreadPool pool(4);
  const auto par = average_case(dor, samples, &pool);
  EXPECT_NEAR(seq.mean_max_load, par.mean_max_load, 1e-12);
  EXPECT_NEAR(seq.true_throughput, par.true_throughput, 1e-12);
}

TEST(AverageCase, UniformSamplesGiveUniformLoad) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  const std::vector<TrafficMatrix> samples{uniform_traffic(t.num_nodes())};
  const auto res = average_case(dor, samples);
  EXPECT_NEAR(res.mean_max_load, t.ideal_uniform_load(), 1e-9);
}

}  // namespace
}  // namespace tcr
