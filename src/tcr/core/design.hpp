// High-level routing-design entry points (paper §5): lexicographic solves
// that first optimize a throughput objective and then recover the best
// locality at that optimum — the procedure behind the "optimal" curves and
// points of Figures 1, 4 and 6.
#pragma once

#include <string>
#include <vector>

#include "tcr/core/arc_flow.hpp"

namespace tcr {

/// The result of a lexicographic design, arc-flow (here) or path-restricted
/// (path_design.hpp).
struct OptimalDesign {
  lp::Status status = lp::Status::Numerical;
  double objective = 0.0;       // optimal gamma (worst-case / uniform / mean)
  double avg_hops = 0.0;        // best H_avg (hops) at that optimum
  double locality_norm = 0.0;   // avg_hops / mean minimal distance
  std::string note;             // solver stop diagnosis when not Optimal
  /// Worse of the two lexicographic stages' certificates (lp::certify).
  lp::Certificate certificate;
  TorusRouting routing;
};

/// Network capacity via LP (problem (6)): minimal uniform max channel load.
/// Must equal Torus::ideal_uniform_load().
double capacity_design_load(const Torus& torus, const lp::SimplexOptions& opts = {});

/// Worst-case-optimal routing with maximal locality (lexicographic: min
/// gamma_wc, then min H_avg subject to gamma_wc <= optimum). The "optimal"
/// series of Figure 4.
OptimalDesign design_worst_case_optimal(const Torus& torus, const lp::SimplexOptions& opts = {});

/// Average-case-optimal routing with maximal locality (Figure 6's maximum
/// average-case throughput point).
OptimalDesign design_average_case_optimal(const Torus& torus,
                                          const std::vector<std::vector<int>>& samples,
                                          const lp::SimplexOptions& opts = {});

/// Relative tolerance used when re-imposing a stage-one optimum as a cap in
/// the lexicographic second stage.
inline constexpr double kLexicographicSlack = 1e-6;

}  // namespace tcr
