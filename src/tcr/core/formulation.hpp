// The parts every symmetric design LP shares: LP (8)'s worst-case block,
// LP (15)'s per-sample rows and the two-stage lexicographic solve. The
// arc-flow LP (SymmetricArcDesign, §4) and the path-restricted LPs
// (PathDesign, §5.2/§5.4) differ only in how a pair (s, d) loads a channel.
// By translation invariance that is the load offset e = d - s puts on the
// channel translated by -s, from source 0. A `Load` is called as
// load(e, c) for e != 0 and returns the columns whose sum is that load:
// the flow variable of (e, c) for an arc-flow design, the weight of each
// family path of offset e through c for a path design.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tcr/core/design.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/util/check.hpp"

namespace tcr::detail {

/// LP (8)'s columns: w, and each representative channel's matching-dual
/// potentials u (u_0 fixed at 0) and v.
struct WorstCaseBlock {
  int w = -1;
  std::vector<std::vector<int>> u, v;
};

/// LP (8), when `cfg` optimizes the worst case or caps it: w >= the
/// worst-case load of each channel in `channels`, as the embedded dual of
/// the max-weight matching over the channel's pair loads. Without the
/// block, w stays -1.
template <class Load>
WorstCaseBlock add_worst_case_block(lp::Model& model, const Torus& torus,
                                    const SymmetricDesignConfig& cfg,
                                    const std::vector<int>& channels, const Load& load) {
  WorstCaseBlock block;
  if (cfg.objective != DesignObjective::WorstCase && cfg.worst_case_cap < 0.0) return block;
  const int n = torus.num_nodes();
  block.w = model.add_col(0.0, cfg.worst_case_cap >= 0.0 ? cfg.worst_case_cap : lp::kInf,
                          cfg.objective == DesignObjective::WorstCase ? 1.0 : 0.0);
  for (int c0 : channels) {
    std::vector<int> u(n), v(n);
    // Ground the potentials' constant-shift null direction: u[0] = 0.
    for (int s = 0; s < n; ++s)
      u[s] = (s == 0) ? model.add_col(0.0, 0.0, 0.0) : model.add_col(-lp::kInf, lp::kInf, 0.0);
    for (int d = 0; d < n; ++d) v[d] = model.add_col(-lp::kInf, lp::kInf, 0.0);

    for (int s = 0; s < n; ++s) {
      // Channel whose canonical load equals the load of (s, *) on c0.
      const int ct = torus.translate_channel(c0, torus.negate_node(s));
      for (int d = 0; d < n; ++d) {
        const int row = model.add_row(lp::RowType::LE, 0.0);
        const int e = torus.offset(s, d);
        if (e != 0) {
          for (int col : load(e, ct)) model.add_term(row, col, 1.0);
        }
        model.add_term(row, v[d], -1.0);
        model.add_term(row, u[s], 1.0);
      }
    }
    const int sum_row = model.add_row(lp::RowType::EQ, 0.0);
    for (int d = 0; d < n; ++d) model.add_term(sum_row, v[d], 1.0);
    for (int s = 0; s < n; ++s) model.add_term(sum_row, u[s], -1.0);
    model.add_term(sum_row, block.w, -1.0);  // b_c = 1
    block.u.push_back(std::move(u));
    block.v.push_back(std::move(v));
  }
  return block;
}

/// LP (15), when `cfg` optimizes the average case or caps it: one max-load
/// column per sample of `cfg.samples`, bounding the sample's load on every
/// channel, whose mean is the objective or is capped. Each sample must hold
/// N destinations in [0, N). Returns the max-load columns (none without the
/// block).
template <class Load>
std::vector<int> add_average_block(lp::Model& model, const Torus& torus,
                                   const SymmetricDesignConfig& cfg, const Load& load) {
  const bool is_obj = cfg.objective == DesignObjective::AverageCase;
  if (!is_obj && cfg.average_cap < 0.0) return {};
  const auto& samples = cfg.samples;
  TCR_REQUIRE(!samples.empty(), "average-case design needs permutation traffic samples");
  const int n = torus.num_nodes(), nc = torus.num_channels();
  for (const auto& perm : samples) {
    TCR_REQUIRE(static_cast<int>(perm.size()) == n, "sample permutation size mismatch");
    for (int d : perm) TCR_REQUIRE(d >= 0 && d < n, "sample destination out of range");
  }
  const double per = 1.0 / static_cast<double>(samples.size());
  std::vector<int> vars;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    vars.push_back(model.add_col(0.0, lp::kInf, is_obj ? per : 0.0));
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& perm = samples[i];
    for (int c = 0; c < nc; ++c) {
      const int row = model.add_row(lp::RowType::LE, 0.0);
      for (int s = 0; s < n; ++s) {
        const int e = torus.offset(s, perm[s]);
        if (e == 0) continue;
        for (int col : load(e, torus.translate_channel(c, torus.negate_node(s)))) {
          model.add_term(row, col, 1.0);
        }
      }
      model.add_term(row, vars[i], -1.0);
    }
  }
  if (cfg.average_cap >= 0.0) {
    const int row = model.add_row(lp::RowType::LE, cfg.average_cap);
    for (int var : vars) model.add_term(row, var, per);
  }
  return vars;
}

/// A design solve's outcome, minus what only the design can read from x.
inline DesignResult design_result(lp::Solution& sol) {
  DesignResult res;
  res.status = sol.status;
  res.iterations = sol.iterations;
  res.dual_iterations = sol.dual_iterations;
  res.note = sol.note;
  res.certificate = sol.certificate;
  res.basis = std::move(sol.basis);
  res.warm_start = sol.warm_start;
  if (sol.status == lp::Status::Optimal) res.objective = sol.objective;
  return res;
}

/// The lexicographic solve behind every "optimal" design: stage 1
/// optimizes `cfg.objective`; stage 2 minimizes H_avg with the stage-1
/// optimum (times 1 + kLexicographicSlack) as a cap. A worst-case or
/// uniform cap only tightens a variable bound, so stage 2 keeps stage 1's
/// shape and warm-starts from its optimal basis (the stage-1 optimum is
/// primal-feasible for it); the average-case cap adds a row, so stage 2
/// starts cold. `make(config)` builds a design (SymmetricArcDesign or
/// PathDesign); without `locality_stage` the result is stage 1's.
template <class Make>
OptimalDesign lexicographic(const Torus& torus, const std::string& name,
                            const SymmetricDesignConfig& cfg, const lp::SimplexOptions& opts,
                            bool locality_stage, const Make& make) {
  OptimalDesign out{.status = lp::Status::Numerical,
                    .objective = 0.0,
                    .avg_hops = 0.0,
                    .locality_norm = 0.0,
                    .note = {},
                    .certificate = {},
                    .routing = TorusRouting(torus, name)};
  const auto finish = [&](const DesignResult& r, const auto& design) {
    out.avg_hops = r.avg_hops;
    out.locality_norm = r.avg_hops / torus.mean_min_distance();
    out.routing = design.routing(name);
  };
  lp::Basis stage1_basis;
  int stage1_rows = 0, stage1_cols = 0;
  {
    trace::Span span("design.lexicographic.stage1");
    auto stage1 = make(cfg);
    DesignResult r1 = stage1.solve(opts);
    span.attr("status", lp::to_string(r1.status));
    out.status = r1.status;
    out.certificate = r1.certificate;
    if (r1.status != lp::Status::Optimal) {
      out.note = "stage-1 (throughput) LP: " + r1.note;
      return out;
    }
    out.objective = r1.objective;
    if (!locality_stage) {
      finish(r1, stage1);
      return out;
    }
    stage1_basis = std::move(r1.basis);
    stage1_rows = stage1.model().num_rows();
    stage1_cols = stage1.model().num_cols();
  }

  SymmetricDesignConfig cfg2 = cfg;
  cfg2.objective = DesignObjective::Locality;
  const double cap = out.objective * (1.0 + kLexicographicSlack);
  if (cfg.objective == DesignObjective::WorstCase) cfg2.worst_case_cap = cap;
  if (cfg.objective == DesignObjective::Uniform) cfg2.uniform_cap = cap;
  if (cfg.objective == DesignObjective::AverageCase) cfg2.average_cap = cap;
  trace::Span span("design.lexicographic.stage2");
  auto stage2 = make(cfg2);
  const bool same_shape = stage2.model().num_rows() == stage1_rows &&
                          stage2.model().num_cols() == stage1_cols;
  const DesignResult r2 = stage2.solve(opts, same_shape ? &stage1_basis : nullptr);
  span.attr("status", lp::to_string(r2.status));
  span.attr("warm_start", r2.warm_start);
  out.status = r2.status;
  out.certificate = lp::worse_certificate(out.certificate, r2.certificate);
  if (r2.status != lp::Status::Optimal) {
    out.note = "stage-2 (locality) LP: " + r2.note;
    return out;
  }
  finish(r2, stage2);
  return out;
}

}  // namespace tcr::detail
