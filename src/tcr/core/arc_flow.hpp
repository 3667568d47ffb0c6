// Arc-flow (edge-variable) formulations of the routing-design MCF problems.
//
// Paper §4: tracking per-path probabilities is exponential, but per-channel
// commodity flows are polynomial — CN^2 variables, N^3 flow-conservation
// constraints — and paths are recovered from the flows afterwards. On the
// vertex/edge-symmetric torus the search can be restricted to translation-
// invariant routing functions (convexity makes this lossless), shrinking the
// problem to one canonical source: CN flow variables and the worst-case
// matching-dual constraints of LP (8) for one representative channel per
// direction class.
//
// SymmetricArcDesign builds these torus LPs; the general_* functions build
// the unreduced formulations for arbitrary digraphs (exponentially more
// rows/cols, fine for small networks, and used in tests to validate that the
// symmetry reduction is exact).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "tcr/graph/digraph.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/lp/model.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/routing/routing.hpp"

namespace tcr {

/// What a design LP minimizes.
enum class DesignObjective {
  WorstCase,    // gamma_wc(R), LP (8)
  Uniform,      // gamma_max(R, U), problem (6) — network capacity
  AverageCase,  // mean gamma_max over samples, eq. (9)
  Locality,     // H_avg(R) — used for the lexicographic second pass
};

struct SymmetricDesignConfig {
  DesignObjective objective = DesignObjective::WorstCase;
  /// Additionally restrict to routings invariant under the dihedral point
  /// group D4 (tcr/graph/symmetry.hpp) by tying variables across orbits.
  /// Lossless for the worst-case / uniform / locality objectives (convexity
  /// + invariance); for the sampled average case it is equivalent to using
  /// the D4-closure of the sample set. Cuts variables ~8x and lets the
  /// worst-case block use a single representative channel.
  bool fold_dihedral = true;
  /// Locality side constraint: average hops per pair == this (paper (10)'s
  /// "H_avg(R) = L", in absolute hops). Negative = absent.
  double locality_equals = -1.0;
  /// Use H_avg <= L instead of equality. The tradeoff sweeps (Figures 1/6)
  /// use this: past the unconstrained optimum an equality constraint forces
  /// wastefully long paths and the curve would bend back.
  bool locality_le = false;
  /// Cap constraints (used for lexicographic solves). Negative = absent.
  double worst_case_cap = -1.0;
  double uniform_cap = -1.0;
  double average_cap = -1.0;
  /// Permutation traffic samples (perm[s] = d) for the average-case rows:
  /// each holds N destinations in [0, N).
  std::vector<std::vector<int>> samples;
};

struct DesignResult {
  lp::Status status = lp::Status::Numerical;
  double objective = 0.0;   // optimal value of the configured objective
  double avg_hops = 0.0;    // H_avg of the designed routing, in hops
  long iterations = 0;
  long dual_iterations = 0;  // dual-phase share of `iterations` (rhs-edit restarts)
  std::string note;         // solver stop diagnosis when not Optimal
  lp::Certificate certificate;  // independent KKT check of the design LP
  /// Final simplex basis (exported on every outcome); feed it back into
  /// solve() of an incrementally-updated design to warm-start.
  lp::Basis basis;
  /// Start-basis adoption outcome of the underlying LP solve (see
  /// lp::Solution::warm_start); a crash start reads "crash-accepted" or
  /// "crash-repaired" (see SymmetricArcDesign::flow_crash_hints()).
  std::string warm_start = "cold";
};

class SymmetricArcDesign {
 public:
  SymmetricArcDesign(const Torus& torus, SymmetricDesignConfig config);

  /// Solve the LP. The designed routing (path decomposition of the optimal
  /// flows) is available via routing() when status == Optimal. `warm`
  /// optionally seeds the simplex with a previous solve's basis (see
  /// lp::solve); it pays off when only the locality bound moved since.
  /// Without one, the solve starts from flow_crash_hints().
  DesignResult solve(const lp::SimplexOptions& opts = {},
                     const lp::Basis* warm = nullptr);

  /// Move the locality bound without rebuilding the model: rewrites the
  /// locality row's right-hand side in place (the row's type and
  /// coefficients never change). Requires a locality row, i.e. the design
  /// was configured with locality_equals >= 0. Sweeps use this to step
  /// through localities against one constraint matrix, warm-starting each
  /// point from the previous basis.
  void set_locality_bound(double locality_equals);

  /// A feasible point of the model, known in closed form (structural
  /// values, size model().num_cols()). The flows are the D4 orbit mean of
  /// a start routing's load table. For the worst-case objective that is DOR
  /// when the locality bound admits only minimal routes, VAL when it admits
  /// VAL's locality or there is no locality row, and in between the §5.3
  /// interpolant alpha DOR + (1 - alpha) VAL whose H_avg equals the bound;
  /// every other objective starts at DOR. The worst-case potentials are the
  /// Hungarian duals of each representative channel's pair-load matrix
  /// (u_0 = 0), w is that channel's worst-case load, and each sample's load
  /// variable is its most-loaded channel. Caps and equality rows are not
  /// adjusted for: the point can violate them (check with
  /// Model::max_violation).
  std::vector<double> start_point() const;

  /// Crash basis for cold solves: the basis lp::crash_from_point() reaches
  /// from start_point(). Empty when the point violates a row or bound (for
  /// example a worst_case_cap below the start routing's worst case), which
  /// leaves the all-logical start. Built for the current locality bound and
  /// cached until the bound moves; solve() passes it to lp::solve as the
  /// start basis when no warm basis is given, and labels the solve
  /// "crash-accepted" or "crash-repaired" when lp::solve adopts it ("cold"
  /// when it is rejected), counted in lp.crash.*.
  const lp::Basis& flow_crash_hints();

  /// Decomposed routing from the last successful solve.
  TorusRouting routing(const std::string& name) const;

  const lp::Model& model() const { return model_; }

 private:
  int flow_var(int e, int c) const { return var_of_[(e - 1) * torus_.num_channels() + c]; }
  void build();
  void build_orbits();
  void add_flow_conservation();
  void add_uniform_block();
  void add_locality_row();

  const Torus& torus_;
  SymmetricDesignConfig config_;
  lp::Model model_;
  int num_flow_vars_ = 0;
  std::vector<int> var_of_;          // (e-1)*C + c -> folded variable id
  std::vector<double> orbit_size_;   // per folded variable
  std::vector<std::array<double, 4>> dir_count_;  // orbit members per class
  std::vector<int> rep_commodities_;
  int wc_var_ = -1;      // w of LP (8)
  int uni_var_ = -1;     // uniform max-load variable
  int locality_row_ = -1;  // row index of the locality constraint, if any
  std::vector<int> avg_vars_;  // per-sample max-load variables
  std::vector<double> solution_flows_;  // (N-1) * C flow values after solve

  // LP (8)'s potential columns per representative channel, for start_point().
  std::vector<std::vector<int>> wc_u_cols_, wc_v_cols_;
  lp::Basis crash_basis_;
  std::optional<double> crash_bound_;  // locality bound crash_basis_ was built for
};

/// Decompose one commodity's channel flows into weighted 0->e paths
/// (cycle flow, if any, is discarded; path weights sum to the injected
/// unit). `flow[c]` is destroyed in the process.
std::vector<WeightedPath> decompose_flow(const Torus& torus, int e, std::vector<double> flow,
                                         double eps = 1e-9);

// ---- General (unreduced) formulations for arbitrary digraphs ----------

struct GeneralDesignResult {
  lp::Status status = lp::Status::Numerical;
  double objective = 0.0;
  /// flows[pair(s,d)][c]; pair index = s * N + d.
  std::vector<std::vector<double>> flows;
  lp::Certificate certificate;  // independent KKT check of the design LP
};

/// Capacity problem (6) on an arbitrary digraph: minimize the maximum
/// bandwidth-normalized channel load under uniform traffic.
GeneralDesignResult general_capacity_design(const Digraph& g,
                                            const lp::SimplexOptions& opts = {});

/// Worst-case problem (8) on an arbitrary digraph: minimize gamma_wc over
/// all oblivious routing functions. O(C N^2) rows — small networks only.
GeneralDesignResult general_worst_case_design(const Digraph& g,
                                              const lp::SimplexOptions& opts = {});

}  // namespace tcr
