#include "tcr/core/path_design.hpp"

#include <map>
#include <span>
#include <utility>

#include "tcr/core/formulation.hpp"
#include "tcr/graph/symmetry.hpp"
#include "tcr/routing/two_turn.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

PathDesign::PathDesign(const Torus& torus, const PathFamily& family,
                       const SymmetricDesignConfig& config)
    : torus_(torus) {
  TCR_REQUIRE(config.objective != DesignObjective::Uniform && config.uniform_cap < 0.0,
              "a path design has no uniform-load block");
  const int n = torus.num_nodes(), nc = torus.num_channels();
  const TorusSymmetry sym(torus);

  // Enumerate representative commodities' paths and tie orbits.
  by_commodity_.resize(n);
  std::map<std::pair<int, std::vector<int>>, int> var_of;
  for (int e = 1; e < n; ++e) {
    if (sym.node_rep(e) != e) continue;
    for (const Path& p : family(torus, e)) {
      // Walk the orbit; create the variable on first contact.
      const int next = static_cast<int>(hops_.size());
      for (int g = 0; g < TorusSymmetry::kOrder; ++g) {
        const Path q = sym.map_path(g, p);
        if (!var_of.try_emplace({q.dst, q.channels}, next).second) continue;
        if (hops_.size() == static_cast<std::size_t>(next)) hops_.push_back(0.0);
        hops_[next] += q.length();
        by_commodity_[q.dst].push_back({q, next});
      }
    }
  }
  const bool min_locality = config.objective == DesignObjective::Locality;
  for (double& h : hops_) {
    h /= n;
    model_.add_col(0.0, lp::kInf, min_locality ? h : 0.0);
  }

  // Unit probability mass per representative commodity (eq. 1); the other
  // commodities' constraints are the same rows under the symmetry.
  for (int e = 1; e < n; ++e) {
    if (sym.node_rep(e) != e || by_commodity_[e].empty()) continue;
    const int row = model_.add_row(lp::RowType::EQ, 1.0);
    for (const auto& [p, v] : by_commodity_[e]) model_.add_term(row, v, 1.0);
  }
  for (int e = 1; e < n; ++e) {
    TCR_REQUIRE(!by_commodity_[e].empty(), "path family must cover every offset");
  }

  // The load index: the variables of offset e's paths through channel c.
  std::vector<std::vector<int>> through(static_cast<std::size_t>(n - 1) * nc);
  for (int e = 1; e < n; ++e) {
    for (const auto& [p, v] : by_commodity_[e]) {
      for (int c : p.channels) through[(e - 1) * nc + c].push_back(v);
    }
  }
  const auto load = [&](int e, int c) { return std::span<const int>(through[(e - 1) * nc + c]); };
  // One representative channel (+X at node 0): the fold makes the four
  // direction classes equivalent.
  detail::add_worst_case_block(model_, torus, config, {torus.channel(0, Dir::PX)}, load);
  detail::add_average_block(model_, torus, config, load);
}

DesignResult PathDesign::solve(const lp::SimplexOptions& opts, const lp::Basis* warm) {
  lp::Solution sol = lp::solve(model_, opts, warm);
  DesignResult res = detail::design_result(sol);
  if (sol.status != lp::Status::Optimal) return res;
  x_.assign(sol.x.begin(), sol.x.begin() + static_cast<std::ptrdiff_t>(hops_.size()));
  for (std::size_t v = 0; v < hops_.size(); ++v) res.avg_hops += hops_[v] * x_[v];
  return res;
}

TorusRouting PathDesign::routing(const std::string& name) const {
  TCR_REQUIRE(!x_.empty(), "no stored solution; call solve() first");
  TorusRouting r(torus_, name);
  for (int e = 1; e < torus_.num_nodes(); ++e) {
    for (const auto& [p, v] : by_commodity_[e]) {
      if (x_[v] > 1e-9) r.add_path(e, p, x_[v]);
    }
  }
  r.normalize();
  return r;
}

OptimalDesign design_over_paths(const Torus& torus, const std::string& name,
                                const PathFamily& family, const PathDesignConfig& config,
                                const lp::SimplexOptions& opts) {
  TCR_REQUIRE(config.objective == DesignObjective::WorstCase ||
                  config.objective == DesignObjective::AverageCase,
              "path design optimizes worst-case or average-case throughput");
  SymmetricDesignConfig cfg;
  cfg.objective = config.objective;
  cfg.samples = config.samples;
  return detail::lexicographic(torus, name, cfg, opts, config.lexicographic_locality,
                               [&](const SymmetricDesignConfig& c) {
                                 return PathDesign(torus, family, c);
                               });
}

OptimalDesign design_two_turn(const Torus& torus, const lp::SimplexOptions& opts) {
  return design_over_paths(torus, "2TURN", enumerate_two_turn_paths,
                           {.objective = DesignObjective::WorstCase, .samples = {}}, opts);
}

OptimalDesign design_two_turn_avg(const Torus& torus,
                                  const std::vector<std::vector<int>>& samples,
                                  const lp::SimplexOptions& opts) {
  return design_over_paths(torus, "2TURNA", enumerate_two_turn_paths,
                           {.objective = DesignObjective::AverageCase, .samples = samples}, opts);
}

OptimalDesign design_minimal_avg(const Torus& torus,
                                 const std::vector<std::vector<int>>& samples,
                                 const lp::SimplexOptions& opts) {
  return design_over_paths(torus, "MIN-A", enumerate_minimal_paths,
                           {.objective = DesignObjective::AverageCase, .samples = samples}, opts);
}

}  // namespace tcr
