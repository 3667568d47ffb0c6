#include "tcr/core/design.hpp"

#include "tcr/core/formulation.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

double capacity_design_load(const Torus& torus, const lp::SimplexOptions& opts) {
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::Uniform;
  SymmetricArcDesign design(torus, cfg);
  const DesignResult res = design.solve(opts);
  TCR_REQUIRE(res.status == lp::Status::Optimal,
              std::string("capacity LP did not solve: ") + lp::to_string(res.status));
  return res.objective;
}

namespace {

OptimalDesign arc_flow_optimal(const Torus& torus, DesignObjective objective,
                               const std::vector<std::vector<int>>& samples,
                               const std::string& name, const lp::SimplexOptions& opts) {
  SymmetricDesignConfig cfg;
  cfg.objective = objective;
  cfg.samples = samples;
  return detail::lexicographic(torus, name, cfg, opts, /*locality_stage=*/true,
                               [&](const SymmetricDesignConfig& c) {
                                 return SymmetricArcDesign(torus, c);
                               });
}

}  // namespace

OptimalDesign design_worst_case_optimal(const Torus& torus, const lp::SimplexOptions& opts) {
  return arc_flow_optimal(torus, DesignObjective::WorstCase, {}, "WC-OPT", opts);
}

OptimalDesign design_average_case_optimal(const Torus& torus,
                                          const std::vector<std::vector<int>>& samples,
                                          const lp::SimplexOptions& opts) {
  return arc_flow_optimal(torus, DesignObjective::AverageCase, samples, "AVG-OPT", opts);
}

}  // namespace tcr
