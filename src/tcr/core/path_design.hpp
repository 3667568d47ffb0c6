// Path-restricted routing design (paper §5.2/§5.4): fix a closed-form family
// of candidate paths per pair and LP-optimize the probability weights —
// lexicographically, throughput first, locality second. Instantiations:
//   * 2TURN  — all <= 2-turn paths, worst-case objective;
//   * 2TURNA — all <= 2-turn paths, average-case objective;
//   * MIN-A  — minimal paths, average-case objective (matches ROMM, §5.4).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tcr/core/design.hpp"
#include "tcr/routing/routing.hpp"

namespace tcr {

using PathFamily = std::function<std::vector<Path>(const Torus&, int e)>;

/// The path-weight LP over a fixed family: one unit of probability mass per
/// commodity (eq. 1), with LP (8)'s and LP (15)'s blocks written as in
/// SymmetricArcDesign. Variables are tied across orbits of the dihedral
/// point group (lossless for the same reasons; the candidate families are
/// closed under the group). Reads the objective (WorstCase, AverageCase or
/// Locality), the worst-case and average-case caps and the samples of
/// `config`.
class PathDesign {
 public:
  PathDesign(const Torus& torus, const PathFamily& family, const SymmetricDesignConfig& config);

  /// Solve the LP; the routing is available via routing() when Optimal.
  DesignResult solve(const lp::SimplexOptions& opts = {}, const lp::Basis* warm = nullptr);

  /// The path weights of the last successful solve as a routing.
  TorusRouting routing(const std::string& name) const;

  const lp::Model& model() const { return model_; }

 private:
  const Torus& torus_;
  lp::Model model_;
  // Every family path for every commodity, with its (orbit-folded) variable.
  std::vector<std::vector<std::pair<Path, int>>> by_commodity_;
  std::vector<double> hops_;  // per variable: its orbit's hops / N
  std::vector<double> x_;     // path weights of the last successful solve
};

struct PathDesignConfig {
  DesignObjective objective = DesignObjective::WorstCase;  // WorstCase or AverageCase
  std::vector<std::vector<int>> samples;  // permutation samples (AverageCase)
  bool lexicographic_locality = true;     // second pass minimizing H_avg
};

OptimalDesign design_over_paths(const Torus& torus, const std::string& name,
                                const PathFamily& family, const PathDesignConfig& config,
                                const lp::SimplexOptions& opts = {});

/// The 2TURN algorithm (paper §5.2).
OptimalDesign design_two_turn(const Torus& torus, const lp::SimplexOptions& opts = {});

/// The 2TURNA algorithm (paper §5.4).
OptimalDesign design_two_turn_avg(const Torus& torus,
                                  const std::vector<std::vector<int>>& samples,
                                  const lp::SimplexOptions& opts = {});

/// Average-case-optimal *minimal* routing (paper §5.4, the ROMM comparison).
OptimalDesign design_minimal_avg(const Torus& torus,
                                 const std::vector<std::vector<int>>& samples,
                                 const lp::SimplexOptions& opts = {});

}  // namespace tcr
