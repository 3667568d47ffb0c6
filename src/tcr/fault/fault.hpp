// tcr::fault — deterministic, seeded fault injection.
//
// Robustness claims are only worth something when they are exercised; this
// module supplies the three fault families the test suite and the CI stress
// job use to prove the solver's recovery retries and the simulator's deadlock
// handling actually work:
//
//   * ULP-level model perturbation: every coefficient nudged a few units in
//     the last place, deterministically from a seed — the numerical
//     sensitivity probe for the design LPs;
//   * simplex test hooks: force refactorization failures, inject drift into
//     the LU update's new diagonals, or corrupt the extracted solution, to seed the
//     breakdowns each recovery retry must rescue (lp/simplex.cpp
//     consults the installed hooks; production pays one atomic pointer load);
//   * simulator fault plans: take links down or stall credits for cycle
//     windows, to drive tcr::sim through deadlock and deadlock-near-miss
//     paths on demand.
//
// Everything here is deterministic given the seed; nothing is installed by
// default.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "tcr/lp/model.hpp"

namespace tcr::fault {

// ---- ULP-level model perturbation --------------------------------------

/// A copy of `model` with every objective coefficient, rhs and constraint
/// coefficient moved up to `max_ulps` floating-point steps (uniformly in
/// [-max_ulps, +max_ulps], per value, from the seed). Bounds are preserved
/// exactly so fixed variables stay fixed and lo <= up cannot invert.
lp::Model perturb_model_ulp(const lp::Model& model, std::uint64_t seed, int max_ulps = 4);

// ---- simplex test hooks ------------------------------------------------

/// Test-only failure injection for the sparse revised simplex. Counters are
/// armed budgets: each injection consumes one unit until the budget is
/// exhausted, so a test can break exactly the first attempt(s) of a solve
/// and watch a specific recovery retry rescue it.
struct SimplexHooks {
  /// While > 0, every refactorization fails (as if the basis were singular),
  /// consuming one unit per failure.
  std::atomic<long> fail_refactors{0};
  /// While > 0, the new U diagonal of each Forrest–Tomlin basis update is
  /// multiplied by (1 + eta_drift), consuming one unit per update —
  /// simulates accumulated update rounding. The solver's determinant check
  /// (new diagonal = pivot x old diagonal) sees it and refactorizes.
  std::atomic<long> drift_etas{0};
  double eta_drift = 0.0;
  /// While > 0, the first structural value of an extracted optimal solution
  /// is offset by solution_corruption — simulates a silently wrong optimum
  /// that only an independent certificate can catch.
  std::atomic<long> corrupt_solutions{0};
  double solution_corruption = 0.0;
  /// While > 0, each refactorization first burns stall_ms of wall clock,
  /// consuming one unit per stall — the slowdown injector that lets
  /// deadline/budget paths (tcr::guard) be exercised on small models. The
  /// first stall_after refactorizations pass untouched (also a consumed
  /// budget), so a run can complete its early work at full speed and then
  /// crawl into its deadline with certified neighbors already banked.
  std::atomic<long> stall_refactors{0};
  double stall_ms = 0.0;
  std::atomic<long> stall_after{0};

  // Injection counts observed (for test assertions).
  std::atomic<long> refactor_failures_injected{0};
  std::atomic<long> eta_drifts_injected{0};
  std::atomic<long> corruptions_injected{0};
  std::atomic<long> stalls_injected{0};

  /// Consume one unit of an armed budget; returns true when the fault fires.
  static bool consume(std::atomic<long>& budget) {
    long v = budget.load(std::memory_order_relaxed);
    while (v > 0) {
      if (budget.compare_exchange_weak(v, v - 1, std::memory_order_relaxed)) return true;
    }
    return false;
  }
};

/// Currently installed hooks, or nullptr (the default). The solver checks
/// this at refactorization, basis update and solution extraction.
SimplexHooks* simplex_hooks() noexcept;

/// Install (or, with nullptr, clear) the process-wide hooks. Tests should
/// prefer ScopedSimplexFaults.
void install_simplex_hooks(SimplexHooks* hooks) noexcept;

/// Install stall hooks from the environment, for subprocess e2e tests that
/// cannot reach into the binary (same idiom as TCR_PERF_INJECT_SCALE):
/// when TCR_FAULT_STALL_MS is set and positive, installs a process-lifetime
/// SimplexHooks with that stall_ms, stall_refactors from
/// TCR_FAULT_STALL_REFACTORS (default: effectively unlimited) and
/// stall_after from TCR_FAULT_STALL_AFTER (default 0). Returns true when
/// hooks were installed. Benches call this once at startup; production
/// binaries never do.
bool install_env_simplex_faults();

/// RAII installer: owns a SimplexHooks, installs it on construction and
/// clears the registration on destruction.
class ScopedSimplexFaults {
 public:
  ScopedSimplexFaults() { install_simplex_hooks(&hooks_); }
  ~ScopedSimplexFaults() { install_simplex_hooks(nullptr); }
  ScopedSimplexFaults(const ScopedSimplexFaults&) = delete;
  ScopedSimplexFaults& operator=(const ScopedSimplexFaults&) = delete;

  SimplexHooks& hooks() { return hooks_; }

 private:
  SimplexHooks hooks_;
};

// ---- simulator fault plans ---------------------------------------------

/// Channel `channel` transmits no flits during cycles [from_cycle, until_cycle).
struct LinkFault {
  int channel = 0;
  long from_cycle = 0;
  long until_cycle = 0;
};

/// Downstream buffers of `channel` report no credits (full) during
/// [from_cycle, until_cycle); vc < 0 stalls every virtual channel.
struct CreditStall {
  int channel = 0;
  int vc = -1;
  long from_cycle = 0;
  long until_cycle = 0;
};

struct SimFaultPlan {
  std::vector<LinkFault> links;
  std::vector<CreditStall> stalls;

  bool empty() const { return links.empty() && stalls.empty(); }

  bool link_down(int channel, long cycle) const {
    for (const LinkFault& f : links) {
      if (f.channel == channel && cycle >= f.from_cycle && cycle < f.until_cycle) return true;
    }
    return false;
  }

  bool credit_stalled(int channel, int vc, long cycle) const {
    for (const CreditStall& f : stalls) {
      if (f.channel == channel && (f.vc < 0 || f.vc == vc) && cycle >= f.from_cycle &&
          cycle < f.until_cycle)
        return true;
    }
    return false;
  }
};

/// Deterministic plan: `link_faults` links down and `credit_stalls` VC
/// stalls, each starting uniformly in [start, start + spread) and lasting
/// `duration` cycles, drawn from the seed.
SimFaultPlan random_sim_faults(int num_channels, int vcs, std::uint64_t seed, int link_faults,
                               int credit_stalls, long start, long spread, long duration);

}  // namespace tcr::fault
