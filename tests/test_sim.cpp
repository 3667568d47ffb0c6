// Flit-level simulator: VC discipline properties, delivery correctness,
// deadlock freedom of the paper's VC assignments (§5.2), low-load latency,
// and throughput tracking below saturation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tcr/fault/fault.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/two_turn.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/traffic/patterns.hpp"

namespace tcr {
namespace {

TEST(VcAssignment, DorPathsNeedOneSet) {
  const Torus t(6);
  const TorusRouting dor = make_dor(t);
  for (int e = 1; e < t.num_nodes(); ++e) {
    for (const auto& wp : dor.paths(e)) {
      EXPECT_EQ(required_vc_sets(t, wp.path), 1);
      const auto vcs = assign_vcs(t, wp.path, 2);
      for (int vc : vcs) EXPECT_LT(vc, 2);
    }
  }
}

TEST(VcAssignment, TwoTurnPathsNeedAtMostTwoSets) {
  const Torus t(6);
  for (int e = 1; e < t.num_nodes(); ++e) {
    for (const Path& p : enumerate_two_turn_paths(t, e)) {
      EXPECT_LE(required_vc_sets(t, p), 2);
      EXPECT_NO_THROW(assign_vcs(t, p, 4));
    }
  }
}

TEST(VcAssignment, ValiantUTurnsOpenSecondSet) {
  // VAL paths can reverse direction within a dimension when the other
  // phase leg is empty; that phase boundary must move to the second VC set
  // (the fix that makes VAL deadlock-free in the simulator).
  const Torus t(4);
  const TorusRouting val = make_valiant(t);
  for (int e = 1; e < t.num_nodes(); ++e) {
    for (const auto& wp : val.paths(e)) {
      EXPECT_LE(required_vc_sets(t, wp.path), 2) << "e=" << e;
      EXPECT_NO_THROW(assign_vcs(t, wp.path, 4));
    }
  }
  // Explicit u-turn walk: +X then -X.
  const Path p = path_from_walk(t, {t.node(0, 0), t.node(1, 0), t.node(2, 0),
                                    t.node(1, 0)});
  EXPECT_EQ(required_vc_sets(t, p), 2);
  const auto vcs = assign_vcs(t, p, 4);
  EXPECT_LT(vcs[1], 2);   // still in set 0 before the turn
  EXPECT_GE(vcs[2], 2);   // set 1 after reversing
}

TEST(VcAssignment, IvalPathsFitInFourVcs) {
  const Torus t(6);
  const TorusRouting ival = make_ival(t);
  for (int e = 1; e < t.num_nodes(); ++e) {
    for (const auto& wp : ival.paths(e)) EXPECT_NO_THROW(assign_vcs(t, wp.path, 4));
  }
}

TEST(VcAssignment, DatelineSwitchesWithinRing) {
  const Torus t(4);
  // Straight +X path that wraps: 2 -> 3 -> 0 -> 1.
  const Path p = path_from_walk(
      t, {t.node(2, 0), t.node(3, 0), t.node(0, 0), t.node(1, 0)});
  const auto vcs = assign_vcs(t, p, 2);
  EXPECT_EQ(vcs[0], 0);
  EXPECT_EQ(vcs[1], 1);  // the wrapping hop lands on the high VC
  EXPECT_EQ(vcs[2], 1);
}

// TrafficGen::draw() computes the destination and the pair's offset from
// precomputed tables instead of Rng::below's and Torus::offset's divides.
// It must return exactly what the reference formula returns and consume the
// per-node stream identically. k=3 and k=5 have node counts that do not
// divide 2^64, so Rng::below's rejection limit is below max(); k=16 is the
// benchmark scale. ROMM offers several weighted paths per offset, so the
// path pick is exercised too.
TEST(TrafficGenDraw, MatchesReferenceFormulaAndStream) {
  for (const int k : {3, 5, 16}) {
    const Torus t(k);
    const TorusRouting romm = make_romm(t);
    const int n = t.num_nodes();
    std::vector<std::vector<double>> cum(n);
    for (int e = 1; e < n; ++e) {
      double acc = 0.0;
      for (const auto& wp : romm.paths(e)) cum[e].push_back(acc += wp.weight);
    }
    const std::vector<std::pair<std::string, std::vector<int>>> patterns = {
        {"uniform", {}}, {"permutation", Rng(11 + k).permutation(n)}};
    for (const auto& [name, perm] : patterns) {
      const double rate = 0.7;
      TrafficGen gen = perm.empty() ? TrafficGen(romm, rate, 3) : TrafficGen(romm, rate, perm, 3);
      gen.prepare();
      Rng fast(100 + k), ref(100 + k);
      long injected = 0;
      for (int i = 0; i < 100000; ++i) {
        const int node = i % n;
        const auto d = gen.draw(node, fast);
        std::optional<std::pair<int, const Path*>> want;
        if (ref.uniform() < rate) {
          const int dst = perm.empty() ? static_cast<int>(ref.below(n)) : perm[node];
          if (dst != node) {
            const int e = t.offset(node, dst);
            const double u = ref.uniform() * cum[e].back();
            std::size_t idx = std::lower_bound(cum[e].begin(), cum[e].end(), u) - cum[e].begin();
            idx = std::min(idx, cum[e].size() - 1);
            want.emplace(dst, &romm.paths(e)[idx].path);
          }
        }
        const std::string what = "k=" + std::to_string(k) + " " + name + " draw " + std::to_string(i);
        ASSERT_EQ(d.has_value(), want.has_value()) << what;
        if (d) {
          ASSERT_EQ(d->dst, want->first) << what;
          ASSERT_EQ(&gen.path(d->path_id), want->second) << what;
          ++injected;
        }
        Rng fast_probe = fast, ref_probe = ref;
        ASSERT_EQ(fast_probe.next(), ref_probe.next()) << what << ": stream diverged";
      }
      EXPECT_GT(injected, 50000) << "k=" << k << " " << name;
    }
  }
}

TEST(Simulator, DeliversEverythingAtLowLoad) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  const auto stats = simulate(dor, 0.05, {}, cfg);
  EXPECT_FALSE(stats.deadlocked);
  EXPECT_GT(stats.injected, 0);
  EXPECT_EQ(stats.injected, stats.ejected);  // drained completely
  EXPECT_NEAR(stats.accepted_rate, 0.05 * (t.num_nodes() - 1.0) / t.num_nodes(), 0.01);
}

TEST(Simulator, LowLoadLatencyNearHopCount) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 3000;
  const auto stats = simulate(dor, 0.02, {}, cfg);
  ASSERT_FALSE(stats.deadlocked);
  // Mean minimal distance is 2 at k=4 (excluding self pairs it's 32/15).
  EXPECT_GT(stats.avg_latency, 1.9);
  EXPECT_LT(stats.avg_latency, 4.5);
}

TEST(Simulator, LatencyPercentilesAreOrderedAndBracketMean) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 3000;
  const auto stats = simulate(dor, 0.1, {}, cfg);
  ASSERT_FALSE(stats.deadlocked);
  EXPECT_GE(stats.p50_latency, 1.0);  // a hop takes at least one cycle
  EXPECT_LE(stats.p50_latency, stats.p95_latency);
  EXPECT_LE(stats.p95_latency, stats.p99_latency);
  EXPECT_LE(stats.p99_latency, stats.max_latency);
  EXPECT_LE(stats.avg_latency, stats.max_latency);
}

class DeadlockFreedom : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Loads, DeadlockFreedom, ::testing::Values(0.3, 0.6, 0.95));

TEST_P(DeadlockFreedom, DorIvalTwoTurnSurviveSaturatingUniform) {
  const Torus t(4);
  SimConfig cfg;
  cfg.warmup_cycles = 1500;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 0;
  cfg.deadlock_threshold = 800;
  for (auto make : {make_dor, make_ival}) {
    const TorusRouting r = make(t);
    const auto stats = simulate(r, GetParam(), {}, cfg);
    EXPECT_FALSE(stats.deadlocked) << r.name() << " rate=" << GetParam();
    EXPECT_GT(stats.accepted_rate, 0.0) << r.name();
  }
}

TEST(DeadlockFreedomTornado, HighTornadoLoadSurvives) {
  const Torus t(4);
  SimConfig cfg;
  cfg.warmup_cycles = 1500;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 0;
  cfg.deadlock_threshold = 800;
  const auto perm = tornado_permutation(t);
  for (auto make : {make_dor, make_ival, make_valiant}) {
    const TorusRouting r = make(t);
    const auto stats = simulate(r, 0.95, perm, cfg);
    EXPECT_FALSE(stats.deadlocked) << r.name();
  }
}

TEST(Simulator, DeadlockWatchdogFiresAtConfiguredThreshold) {
  // Deterministic firing test for the configurable watchdog: with every
  // channel down from cycle 0, injected traffic fills the source queues but
  // nothing ever moves (injection does not count as movement), so the
  // network is non-empty and quiet from cycle 0 and the watchdog must
  // declare deadlock right after `deadlock_threshold` quiet cycles — for
  // any threshold, which pins that the knob is actually honored.
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  fault::SimFaultPlan all_down;
  for (int c = 0; c < t.num_channels(); ++c) {
    fault::LinkFault f;
    f.channel = c;
    f.from_cycle = 0;
    f.until_cycle = 1L << 30;
    all_down.links.push_back(f);
  }
  for (const int threshold : {50, 137}) {
    SimConfig cfg;
    cfg.vcs = 2;
    cfg.warmup_cycles = threshold + 500;
    cfg.measure_cycles = 100;
    cfg.drain_cycles = 100;
    cfg.deadlock_threshold = threshold;
    cfg.faults = &all_down;
    const auto stats = simulate(dor, 1.0, {}, cfg);
    EXPECT_TRUE(stats.deadlocked) << "threshold " << threshold;
    EXPECT_GE(stats.cycles_run, threshold) << "threshold " << threshold;
    EXPECT_LE(stats.cycles_run, threshold + 2) << "threshold " << threshold;
  }
}

TEST(Simulator, ThroughputTracksOfferedBelowSaturation) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  // Analytic uniform capacity at k=4: gamma_ideal = 0.5 -> Theta = 2 > 1,
  // capped by injection bandwidth 1; at rate 0.3 the network is far from
  // saturated and accepted ~= offered * (N-1)/N.
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 4000;
  const auto stats = simulate(dor, 0.3, {}, cfg);
  ASSERT_FALSE(stats.deadlocked);
  EXPECT_NEAR(stats.accepted_rate, 0.3 * 15.0 / 16.0, 0.03);
}

TEST(Simulator, SaturationOrderingMatchesAnalyticWorstCase) {
  // Under tornado, DOR saturates at Theta = 1/3 of injection; VAL-style
  // algorithms do better on tornado... at k=4 tornado is only 1 hop; use
  // shift of k/2 instead: complement sends everyone k/2 + k/2 hops.
  const Torus t(4);
  const auto perm = complement_permutation(t);
  const TorusRouting dor = make_dor(t);
  const double analytic = 1.0 / max_channel_load(dor, perm);
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 3000;
  cfg.drain_cycles = 0;
  // Slightly below the analytic bound: accepted should track offered.
  const auto below = simulate(dor, 0.85 * analytic, perm, cfg);
  ASSERT_FALSE(below.deadlocked);
  EXPECT_GT(below.accepted_rate, 0.85 * analytic * 0.85);
  // Well above: accepted must cap out below offered.
  const auto above = simulate(dor, std::min(1.0, 1.5 * analytic), perm, cfg);
  ASSERT_FALSE(above.deadlocked);
  EXPECT_LT(above.accepted_rate, 1.15 * analytic);
}

TEST(Simulator, SaturationSearchReturnsReasonableRate) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 400;
  cfg.measure_cycles = 1200;
  cfg.drain_cycles = 0;
  const double sat = saturation_throughput(dor, complement_permutation(t), cfg, 0.08);
  const double analytic = 1.0 / max_channel_load(make_dor(t), complement_permutation(t));
  EXPECT_GT(sat, 0.4 * analytic);
  EXPECT_LT(sat, 1.3 * analytic);
}

}  // namespace
}  // namespace tcr
