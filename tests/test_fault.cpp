// Fault injection (tcr::fault) proving the robustness machinery:
//  * ULP model perturbation is deterministic and keeps problems solvable;
//  * each recovery retry demonstrably rescues a seeded breakdown, selected
//    by the size of the injected-failure budget;
//  * corrupted "optimal" extractions are caught by the certificate and
//    re-solved;
//  * simulator link-down faults deadlock the drain, transient global credit
//    stalls register as deadlock near-misses yet deliver every packet.
// The env-gated stress case at the bottom backs the CI fault-injection job.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "tcr/core/tradeoff.hpp"
#include "tcr/fault/fault.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {
namespace {

using lp::kInf;
using lp::Model;
using lp::RowType;
using lp::Sense;
using lp::Status;

// A small LP with a unique, easily-checked optimum: max 3x + 5y, opt 36.
Model textbook() {
  Model m;
  m.set_sense(Sense::Maximize);
  const int x = m.add_col(0, kInf, 3);
  const int y = m.add_col(0, kInf, 5);
  m.add_row(RowType::LE, 4, {{x, 1.0}});
  m.add_row(RowType::LE, 12, {{y, 2.0}});
  m.add_row(RowType::LE, 18, {{x, 3.0}, {y, 2.0}});
  return m;
}

// A model big enough to pivot for a while (so eta faults have etas to hit).
Model chain_model(int n) {
  Model m;
  Rng rng(55);
  std::vector<int> x(n);
  for (int i = 0; i < n; ++i) x[i] = m.add_col(0, 2.0, rng.uniform(0.1, 2.0));
  for (int i = 0; i + 1 < n; ++i) {
    m.add_row(RowType::GE, 0.5, {{x[i], 1.0}, {x[i + 1], 1.0}});
  }
  return m;
}

long counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

// ---- ULP perturbation --------------------------------------------------

TEST(FaultUlp, DeterministicAndSolvable) {
  const Model m = textbook();
  const Model a = fault::perturb_model_ulp(m, 123, 4);
  const Model b = fault::perturb_model_ulp(m, 123, 4);
  const Model c = fault::perturb_model_ulp(m, 124, 4);
  bool identical_ab = true, identical_ac = true;
  for (int j = 0; j < m.num_cols(); ++j) {
    identical_ab &= a.cost(j) == b.cost(j);
    identical_ac &= a.cost(j) == c.cost(j);
    // Bounds must be byte-identical to the original.
    EXPECT_EQ(a.lower(j), m.lower(j));
    EXPECT_EQ(a.upper(j), m.upper(j));
  }
  for (std::size_t t = 0; t < m.num_terms(); ++t) {
    identical_ab &= a.triplets()[t].value == b.triplets()[t].value;
    identical_ac &= a.triplets()[t].value == c.triplets()[t].value;
  }
  EXPECT_TRUE(identical_ab);
  EXPECT_FALSE(identical_ac);  // different seed, different jitter

  const auto sol = lp::solve(a);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();
  EXPECT_NEAR(sol.objective, 36.0, 1e-9);  // ULP jitter is invisible at 1e-9
}

TEST(FaultUlp, ZeroUlpsIsIdentity) {
  const Model m = textbook();
  const Model a = fault::perturb_model_ulp(m, 7, 0);
  for (int j = 0; j < m.num_cols(); ++j) EXPECT_EQ(a.cost(j), m.cost(j));
  for (int i = 0; i < m.num_rows(); ++i) EXPECT_EQ(a.rhs(i), m.rhs(i));
}

// ---- recovery retries --------------------------------------------------

// The lp.recovery.* counters over the probe's lifetime.
class RetryProbe {
 public:
  long attempts() const { return counter_value("lp.recovery.attempts") - attempts0_; }
  long rescued() const { return counter_value("lp.recovery.rescued") - rescued0_; }
  long exhausted() const { return counter_value("lp.recovery.exhausted") - exhausted0_; }
  // Which retry rescued the one solve inside the probe's lifetime: 0 when
  // none did.
  long rescuer() const { return rescued() == 1 ? attempts() : 0; }

 private:
  long attempts0_ = counter_value("lp.recovery.attempts");
  long rescued0_ = counter_value("lp.recovery.rescued");
  long exhausted0_ = counter_value("lp.recovery.exhausted");
};

// The size of an injected refactorization-failure budget decides which
// retry rescues textbook(): the first attempt consumes one failure and each
// retry three (one per factorization it tries: the chained basis, its
// patched repair, the all-logical basis), so retry 1 takes budgets 1-3,
// retry 2 budgets 4-6, and from 7 up every attempt breaks.
long rescuer_for_refactor_failures(long budget) {
  fault::ScopedSimplexFaults faults;
  faults.hooks().fail_refactors = budget;
  const RetryProbe probe;
  const auto sol = lp::solve(textbook());
  EXPECT_EQ(sol.status, Status::Optimal) << "budget " << budget << ": " << sol.note;
  EXPECT_TRUE(sol.certificate.ok()) << "budget " << budget;
  EXPECT_NEAR(sol.objective, 36.0, 1e-9) << "budget " << budget;
  EXPECT_EQ(faults.hooks().refactor_failures_injected.load(), budget);
  return probe.rescuer();
}

TEST(FaultLadder, FirstRetryRescuesRefactorFailure) {
  for (long budget = 1; budget <= 3; ++budget) {
    EXPECT_EQ(rescuer_for_refactor_failures(budget), 1) << "budget " << budget;
  }
}

TEST(FaultLadder, SecondRetryRescuesWhenTheFirstFails) {
  for (long budget = 4; budget <= 6; ++budget) {
    EXPECT_EQ(rescuer_for_refactor_failures(budget), 2) << "budget " << budget;
  }
}

TEST(FaultLadder, SeventhFailureExhaustsTheRetries) {
  fault::ScopedSimplexFaults faults;
  faults.hooks().fail_refactors = 7;
  const RetryProbe probe;

  const auto sol = lp::solve(textbook());
  EXPECT_EQ(sol.status, Status::Numerical);
  EXPECT_NE(sol.note.find("first attempt"), std::string::npos) << sol.note;
  EXPECT_NE(sol.note.find("retry 1"), std::string::npos) << sol.note;
  EXPECT_NE(sol.note.find("retry 2"), std::string::npos) << sol.note;
  EXPECT_EQ(probe.rescued(), 0);
  EXPECT_EQ(probe.attempts(), 2);
  EXPECT_EQ(probe.exhausted(), 1);
  EXPECT_EQ(faults.hooks().refactor_failures_injected.load(), 7);
}

TEST(FaultLadder, ExhaustionKeepsFirstAttemptDiagnosis) {
  fault::ScopedSimplexFaults faults;
  faults.hooks().fail_refactors = 1'000'000;
  const RetryProbe probe;

  const auto sol = lp::solve(chain_model(400));
  EXPECT_EQ(sol.status, Status::Numerical);
  EXPECT_NE(sol.note.find("recovery retries exhausted"), std::string::npos) << sol.note;
  EXPECT_NE(sol.note.find("first attempt"), std::string::npos) << sol.note;
  EXPECT_EQ(probe.rescued(), 0);
  EXPECT_EQ(probe.attempts(), 2);
  EXPECT_EQ(probe.exhausted(), 1);
}

TEST(FaultLadder, CorruptedExtractionCaughtAndResolved) {
  fault::ScopedSimplexFaults faults;
  faults.hooks().solution_corruption = 0.75;
  faults.hooks().corrupt_solutions = 1;  // silently wrong "optimum" once
  const RetryProbe probe;

  const auto sol = lp::solve(textbook());
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();
  EXPECT_NEAR(sol.objective, 36.0, 1e-9);
  EXPECT_EQ(faults.hooks().corruptions_injected.load(), 1);
  EXPECT_EQ(probe.rescuer(), 1);
}

TEST(FaultLadder, CorruptionUndetectedWithoutCertification) {
  fault::ScopedSimplexFaults faults;
  faults.hooks().solution_corruption = 0.75;
  faults.hooks().corrupt_solutions = 1;
  const RetryProbe probe;

  lp::SimplexOptions opts;
  opts.certify = false;  // the control: no checker, the bad point sails through
  const auto sol = lp::solve(textbook(), opts);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.x[0], 2.75, 1e-9);  // corrupted value survives
  EXPECT_EQ(probe.rescued(), 0);
  EXPECT_EQ(probe.attempts(), 0);
}

// Drifted LU-update diagonals: the solver's determinant check sees each
// one and refactorizes, so the solve ends certified with no rescue.
TEST(FaultLadder, EtaDriftEndsCertified) {
  fault::ScopedSimplexFaults faults;
  faults.hooks().eta_drift = 1e-4;
  faults.hooks().drift_etas = 25;
  const RetryProbe probe;

  const auto sol = lp::solve(chain_model(120));
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_TRUE(sol.certificate.ok()) << sol.certificate.summary();
  EXPECT_GT(faults.hooks().eta_drifts_injected.load(), 0);
  EXPECT_EQ(probe.rescued(), 0);
}

// ---- simulator faults --------------------------------------------------

TEST(FaultSim, PermanentLinkDownDeadlocksTheDrain) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  fault::SimFaultPlan plan;
  plan.links.push_back({.channel = 0, .from_cycle = 0, .until_cycle = 1L << 30});

  SimConfig cfg;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 600;
  cfg.drain_cycles = 4000;
  cfg.deadlock_threshold = 400;
  cfg.faults = &plan;
  const long deadlocks0 = counter_value("sim.deadlocks");
  const SimStats s = simulate(dor, 0.2, {}, cfg);
  // Packets routed over channel 0 can never advance; once injection stops
  // the stuck flits trip the watchdog.
  EXPECT_TRUE(s.deadlocked);
  EXPECT_LT(s.ejected, s.injected);
  EXPECT_EQ(counter_value("sim.deadlocks"), deadlocks0 + 1);
  EXPECT_GT(counter_value("sim.fault.link_down_cycles"), 0);
}

TEST(FaultSim, TransientGlobalStallIsNearMissNotDeadlock) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  fault::SimFaultPlan plan;
  // Stall every channel/VC for 250 cycles mid-warmup: longer than half the
  // watchdog threshold (near-miss) but shorter than the threshold (no
  // deadlock verdict).
  for (int c = 0; c < t.num_channels(); ++c) {
    plan.stalls.push_back({.channel = c, .vc = -1, .from_cycle = 200, .until_cycle = 450});
  }

  SimConfig cfg;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 800;
  cfg.drain_cycles = 8000;
  cfg.deadlock_threshold = 400;
  cfg.faults = &plan;
  const long near0 = counter_value("sim.deadlock_near_miss");
  const SimStats s = simulate(dor, 0.05, {}, cfg);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.ejected, s.injected);  // every packet still delivered
  EXPECT_GT(counter_value("sim.deadlock_near_miss"), near0);
  EXPECT_GT(counter_value("sim.fault.credit_stalls"), 0);
}

TEST(FaultSim, RandomPlansAreDeterministicAndInRange) {
  const auto a = fault::random_sim_faults(32, 4, 9001, 5, 7, 100, 400, 50);
  const auto b = fault::random_sim_faults(32, 4, 9001, 5, 7, 100, 400, 50);
  ASSERT_EQ(a.links.size(), 5u);
  ASSERT_EQ(a.stalls.size(), 7u);
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].channel, b.links[i].channel);
    EXPECT_EQ(a.links[i].from_cycle, b.links[i].from_cycle);
    EXPECT_GE(a.links[i].channel, 0);
    EXPECT_LT(a.links[i].channel, 32);
    EXPECT_GE(a.links[i].from_cycle, 100);
    EXPECT_LT(a.links[i].from_cycle, 500);
    EXPECT_EQ(a.links[i].until_cycle, a.links[i].from_cycle + 50);
  }
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(a.stalls[i].channel, b.stalls[i].channel);
    EXPECT_GE(a.stalls[i].vc, 0);
    EXPECT_LT(a.stalls[i].vc, 4);
  }
  EXPECT_TRUE(a.link_down(a.links[0].channel, a.links[0].from_cycle));
  EXPECT_FALSE(a.link_down(a.links[0].channel, a.links[0].until_cycle));
}

// ---- CI stress case ----------------------------------------------------

// Enabled by TCR_FAULT_STRESS=1: a seed matrix of perturbed models solved
// under injected refactorization failures and extraction corruptions; every
// accepted solve must carry a passing certificate. Failing certificates are
// written (one JSON line each) to $TCR_CERT_ARTIFACT_DIR for CI upload.
TEST(FaultStress, SeedMatrixSurvivesInjection) {
  const char* enabled = std::getenv("TCR_FAULT_STRESS");
  if (enabled == nullptr || std::string(enabled) == "0") {
    GTEST_SKIP() << "set TCR_FAULT_STRESS=1 to run the fault stress matrix";
  }
  const char* artifact_dir = std::getenv("TCR_CERT_ARTIFACT_DIR");
  int failures = 0;

  Rng gen(0xfa11);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    // A random bounded LP, ULP-perturbed so no two seeds see identical data.
    Model base;
    const int cols = 4 + static_cast<int>(gen.below(10));
    for (int j = 0; j < cols; ++j) base.add_col(0, gen.uniform(0.5, 4.0), gen.uniform(-3, 3));
    for (int i = 0; i < 3 + static_cast<int>(gen.below(8)); ++i) {
      const int row = base.add_row(gen.uniform() < 0.5 ? RowType::LE : RowType::GE,
                                   gen.uniform(-1, 3));
      for (int j = 0; j < cols; ++j) {
        if (gen.uniform() < 0.5) base.add_term(row, j, gen.uniform(-2, 2));
      }
    }
    const Model m = fault::perturb_model_ulp(base, seed, 8);

    fault::ScopedSimplexFaults faults;
    faults.hooks().fail_refactors = static_cast<long>(seed % 3);
    faults.hooks().solution_corruption = 0.5;
    faults.hooks().corrupt_solutions = static_cast<long>(seed % 2);

    const auto sol = lp::solve(m);
    if (sol.status != Status::Optimal) continue;  // infeasible draws are fine
    if (sol.certificate.ok()) continue;
    ++failures;
    ADD_FAILURE() << "seed " << seed
                  << ": accepted solve without passing certificate: "
                  << sol.certificate.summary();
    if (artifact_dir != nullptr) {
      std::ofstream out(std::string(artifact_dir) + "/failed_certificate_seed" +
                        std::to_string(seed) + ".json");
      out << "{\"seed\": " << seed << ", \"pass\": false, \"worst\": "
          << sol.certificate.worst() << ", \"reason\": \"" << sol.certificate.reason
          << "\", \"note\": \"" << sol.note << "\"}\n";
    }
  }
  EXPECT_EQ(failures, 0);
}

// Enabled by TCR_FAULT_STRESS=1: a warm-started tradeoff sweep under
// injected refactorization failures. The warm chain hands each point a basis
// the previous (possibly retried) solve produced, so this
// exercises warm adoption on top of the fault machinery; every point must
// still come back with a certified optimum matching a fault-free cold sweep.
TEST(FaultStress, WarmSweepSurvivesInjection) {
  const char* enabled = std::getenv("TCR_FAULT_STRESS");
  if (enabled == nullptr || std::string(enabled) == "0") {
    GTEST_SKIP() << "set TCR_FAULT_STRESS=1 to run the fault stress matrix";
  }
  const Torus torus(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 5);
  SweepConfig cfg;
  cfg.warm_start = true;
  cfg.chains = 1;

  const auto clean = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);

  fault::ScopedSimplexFaults faults;
  faults.hooks().fail_refactors = 2;
  const auto faulted = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);

  ASSERT_EQ(faulted.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_TRUE(clean[i].solved()) << "clean point " << i << ": " << clean[i].note;
    ASSERT_TRUE(faulted[i].solved()) << "faulted point " << i << ": " << faulted[i].note;
    EXPECT_TRUE(faulted[i].certificate.pass) << faulted[i].certificate.summary();
    EXPECT_NEAR(faulted[i].capacity_fraction, clean[i].capacity_fraction, 1e-8)
        << "point " << i;
  }
}

}  // namespace
}  // namespace tcr
