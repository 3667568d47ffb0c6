#include "tcr/core/arc_flow.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>

#include "tcr/core/formulation.hpp"
#include "tcr/graph/symmetry.hpp"
#include "tcr/lp/crossover.hpp"
#include "tcr/matching/hungarian.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

using lp::Model;
using lp::RowType;

namespace {

// Design-pipeline metrics (resolved once; references are stable).
struct DesignMetrics {
  obs::Counter& solves = obs::Registry::instance().counter("core.design.solves");
  obs::Gauge& rows = obs::Registry::instance().gauge("core.design.rows");
  obs::Gauge& cols = obs::Registry::instance().gauge("core.design.cols");
  obs::Gauge& nnz = obs::Registry::instance().gauge("core.design.nnz");
  // Flow-variable count with and without the dihedral/translation folding —
  // the "size before/after symmetry reduction" of §4.
  obs::Gauge& flow_vars = obs::Registry::instance().gauge("core.design.flow_vars");
  obs::Gauge& flow_vars_unfolded =
      obs::Registry::instance().gauge("core.design.flow_vars_unfolded");
  obs::Gauge& last_objective = obs::Registry::instance().gauge("core.design.last_objective");
  // How many crash bases were built (flow_crash_hints()).
  obs::Counter& crash_points = obs::Registry::instance().counter("core.design.crash_points");
  // How the crash bases solve() started from fared in lp::solve (adopted
  // unchanged, adopted after patching, or rejected for the all-logical
  // start): attempts == accepted + repaired + rejected. The same starts are
  // counted in lp.warmstart.*, with every other start basis.
  obs::Counter& crash_attempts = obs::Registry::instance().counter("lp.crash.attempts");
  obs::Counter& crash_accepted = obs::Registry::instance().counter("lp.crash.accepted");
  obs::Counter& crash_repaired = obs::Registry::instance().counter("lp.crash.repaired");
  obs::Counter& crash_rejected = obs::Registry::instance().counter("lp.crash.rejected");
  // Objective trajectory across the solves of a pipeline stage (lexicographic
  // stages, tradeoff sweeps): the snapshot reports count/min/max/percentiles
  // of all objectives seen since the last reset.
  obs::Histogram& objectives =
      obs::Registry::instance().histogram("core.design.objective", 1e-3, 1.1);
  obs::Timer& t_build = obs::Registry::instance().timer("core.design.time.build");
  obs::Timer& t_solve = obs::Registry::instance().timer("core.design.time.solve");
  obs::Timer& t_decompose = obs::Registry::instance().timer("core.design.time.decompose");

  static DesignMetrics& get() {
    static DesignMetrics m;
    return m;
  }
};

}  // namespace

SymmetricArcDesign::SymmetricArcDesign(const Torus& torus, SymmetricDesignConfig config)
    : torus_(torus), config_(std::move(config)) {
  auto& met = DesignMetrics::get();
  {
    obs::ScopedTimer t(met.t_build);
    build();
  }
  met.rows.set(model_.num_rows());
  met.cols.set(model_.num_cols());
  met.nnz.set(static_cast<double>(model_.num_terms()));
  met.flow_vars.set(num_flow_vars_);
  met.flow_vars_unfolded.set(static_cast<double>(torus_.num_nodes() - 1) *
                             torus_.num_channels());
}

void SymmetricArcDesign::build() {
  const int n = torus_.num_nodes();
  const bool min_locality = config_.objective == DesignObjective::Locality;

  build_orbits();
  for (int v = 0; v < num_flow_vars_; ++v) {
    model_.add_col(0.0, lp::kInf, min_locality ? orbit_size_[v] / n : 0.0);
  }

  add_flow_conservation();

  // The load of offset e on channel c is its one flow variable.
  const int nc = torus_.num_channels();
  const auto load = [&](int e, int c) {
    return std::span<const int>(&var_of_[(e - 1) * nc + c], 1);
  };
  // With the dihedral fold the four direction classes are equivalent, so a
  // single representative channel suffices; otherwise one per class.
  std::vector<int> channels;
  for (int dir = 0; dir < (config_.fold_dihedral ? 1 : kNumDirs); ++dir) {
    channels.push_back(torus_.channel(0, static_cast<Dir>(dir)));
  }
  detail::WorstCaseBlock wc = detail::add_worst_case_block(model_, torus_, config_, channels, load);
  wc_var_ = wc.w;
  wc_u_cols_ = std::move(wc.u);
  wc_v_cols_ = std::move(wc.v);
  if (config_.objective == DesignObjective::Uniform || config_.uniform_cap >= 0.0) {
    add_uniform_block();
  }
  avg_vars_ = detail::add_average_block(model_, torus_, config_, load);
  if (config_.locality_equals >= 0.0) add_locality_row();
}

void SymmetricArcDesign::build_orbits() {
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  var_of_.assign(static_cast<std::size_t>(n - 1) * nc, -1);
  orbit_size_.clear();
  dir_count_.clear();
  rep_commodities_.clear();
  num_flow_vars_ = 0;

  if (!config_.fold_dihedral) {
    for (int e = 1; e < n; ++e) {
      rep_commodities_.push_back(e);
      for (int c = 0; c < nc; ++c) {
        var_of_[(e - 1) * nc + c] = num_flow_vars_++;
        orbit_size_.push_back(1.0);
        std::array<double, 4> dc{0, 0, 0, 0};
        dc[c % kNumDirs] = 1.0;
        dir_count_.push_back(dc);
      }
    }
    return;
  }

  const TorusSymmetry sym(torus_);
  for (int e = 1; e < n; ++e) {
    if (sym.node_rep(e) == e) rep_commodities_.push_back(e);
  }
  for (int e = 1; e < n; ++e) {
    for (int c = 0; c < nc; ++c) {
      if (var_of_[(e - 1) * nc + c] >= 0) continue;
      const int v = num_flow_vars_++;
      orbit_size_.push_back(0.0);
      dir_count_.push_back({0, 0, 0, 0});
      // Walk the orbit, assigning every distinct member to this variable.
      for (int g = 0; g < TorusSymmetry::kOrder; ++g) {
        const int eg = sym.map_node(g, e);
        const int cg = sym.map_channel(g, c);
        auto& slot = var_of_[(eg - 1) * nc + cg];
        if (slot < 0) {
          slot = v;
          orbit_size_[v] += 1.0;
          dir_count_[v][cg % kNumDirs] += 1.0;
        }
      }
    }
  }
}

void SymmetricArcDesign::add_flow_conservation() {
  const int n = torus_.num_nodes();
  for (int e : rep_commodities_) {
    for (int nd = 0; nd < n; ++nd) {
      const double rhs = (nd == e) ? 1.0 : (nd == 0 ? -1.0 : 0.0);
      const int row = model_.add_row(RowType::EQ, rhs);
      for (int dir = 0; dir < kNumDirs; ++dir) {
        const Dir d = static_cast<Dir>(dir);
        // Out-channel of nd in direction d.
        model_.add_term(row, flow_var(e, torus_.channel(nd, d)), -1.0);
        // In-channel: the same-direction channel of the opposite neighbor.
        const Dir opp = static_cast<Dir>(dir ^ 1);  // PX<->NX, PY<->NY
        model_.add_term(row, flow_var(e, torus_.channel(torus_.neighbor(nd, opp), d)), 1.0);
      }
    }
  }
}

void SymmetricArcDesign::add_uniform_block() {
  const int n = torus_.num_nodes();
  const bool is_obj = config_.objective == DesignObjective::Uniform;
  const double up = config_.uniform_cap >= 0.0 ? config_.uniform_cap : lp::kInf;
  uni_var_ = model_.add_col(0.0, up, is_obj ? 1.0 : 0.0);

  const int num_blocks = config_.fold_dihedral ? 1 : kNumDirs;
  for (int dir = 0; dir < num_blocks; ++dir) {
    const int row = model_.add_row(RowType::LE, 0.0);
    for (int v = 0; v < num_flow_vars_; ++v) {
      if (dir_count_[v][dir] != 0.0) model_.add_term(row, v, dir_count_[v][dir]);
    }
    model_.add_term(row, uni_var_, -static_cast<double>(n));
  }
}

void SymmetricArcDesign::add_locality_row() {
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  const int row = model_.add_row(config_.locality_le ? RowType::LE : RowType::EQ,
                                 config_.locality_equals * n);
  for (int e = 1; e < n; ++e) {
    for (int c = 0; c < nc; ++c) model_.add_term(row, flow_var(e, c), 1.0);
  }
  locality_row_ = row;
}

void SymmetricArcDesign::set_locality_bound(double locality_equals) {
  TCR_REQUIRE(locality_row_ >= 0,
              "design has no locality row; construct with locality_equals >= 0");
  TCR_REQUIRE(locality_equals >= 0.0, "locality bound must be nonnegative");
  config_.locality_equals = locality_equals;
  model_.set_rhs(locality_row_, locality_equals * torus_.num_nodes());
}

std::vector<double> SymmetricArcDesign::start_point() const {
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  // A load table as folded flows: the mean over each orbit, which is the
  // load table of the routing's D4 average.
  const auto folded = [&](const DenseMatrix& table) {
    std::vector<double> f(static_cast<std::size_t>(num_flow_vars_), 0.0);
    for (int e = 1; e < n; ++e) {
      for (int c = 0; c < nc; ++c) f[flow_var(e, c)] += table(e, c);
    }
    for (int v = 0; v < num_flow_vars_; ++v) f[v] /= orbit_size_[v];
    return f;
  };
  // VAL's load table from DOR's: each intermediate i with probability 1/N,
  // DOR from 0 to i, then the DOR route of offset e - i translated by i.
  const DenseMatrix dor_table = make_dor(torus_).load_table();
  const auto valiant_table = [&] {
    DenseMatrix table(n, nc);
    for (int e = 1; e < n; ++e) {
      for (int i = 0; i < n; ++i) {
        const int rest = torus_.offset(i, e), back = torus_.negate_node(i);
        for (int c = 0; c < nc; ++c) {
          table(e, c) += (dor_table(i, c) + dor_table(rest, torus_.translate_channel(c, back))) / n;
        }
      }
    }
    return table;
  };
  const auto total_hops = [&](const std::vector<double>& f) {
    double t = 0.0;
    for (int v = 0; v < num_flow_vars_; ++v) t += orbit_size_[v] * f[v];
    return t;
  };

  // The start routing, by its weight alpha on DOR against VAL (eq. 11).
  // For the worst case: DOR where the bound admits only minimal routes, VAL
  // where it admits VAL's locality (or where there is no locality row), and
  // in between the interpolant whose H_avg is the bound (H_avg is linear in
  // alpha, eq. 12). Every other objective starts at DOR, which meets any
  // bound L >= 1: on LP (15), DOR-started cold solves beat interpolant- and
  // VAL-started ones at every L measured (see DESIGN.md).
  const std::vector<double> dor = folded(dor_table);
  double alpha = 1.0;
  std::vector<double> val;
  if (config_.objective == DesignObjective::WorstCase) {
    const double t_dor = total_hops(dor);
    const double bound = locality_row_ >= 0 ? config_.locality_equals * n : lp::kInf;
    if (bound > t_dor * (1.0 + 1e-12)) {
      val = folded(valiant_table());
      const double t_val = total_hops(val);
      alpha = bound >= t_val ? 0.0 : (t_val - bound) / (t_val - t_dor);
    }
  }
  std::vector<double> x(static_cast<std::size_t>(model_.num_cols()), 0.0);
  for (int v = 0; v < num_flow_vars_; ++v) {
    x[v] = alpha == 1.0 ? dor[v] : alpha * dor[v] + (1.0 - alpha) * val[v];
  }
  // Load of permutation perm on channel c (the sample rows' sum).
  const auto perm_load = [&](const std::vector<int>& perm, int c) {
    double load = 0.0;
    for (int s = 0; s < n; ++s) {
      const int e = torus_.offset(s, perm[s]);
      if (e != 0) load += x[flow_var(e, torus_.translate_channel(c, torus_.negate_node(s)))];
    }
    return load;
  };

  if (wc_var_ >= 0) {
    double w = 0.0;
    // The matching duals of each channel's pair-load matrix, shifted so that
    // u_0 = 0; the block's w is then sum v - sum u, the channel's worst case.
    std::vector<double> block_w;
    for (std::size_t b = 0; b < wc_u_cols_.size(); ++b) {
      const int c0 = torus_.channel(0, static_cast<Dir>(b));
      DenseMatrix loads(n, n);
      for (int s = 0; s < n; ++s) {
        const int ct = torus_.translate_channel(c0, torus_.negate_node(s));
        for (int d = 0; d < n; ++d) {
          const int e = torus_.offset(s, d);
          if (e != 0) loads(s, d) = x[flow_var(e, ct)];
        }
      }
      const AssignmentResult match = solve_assignment_max(loads);
      const double shift = match.row_dual[0];
      double wb = 0.0;
      for (int s = 0; s < n; ++s) {
        x[wc_u_cols_[b][s]] = s == 0 ? 0.0 : shift - match.row_dual[s];
        wb -= x[wc_u_cols_[b][s]];
      }
      for (int d = 0; d < n; ++d) {
        x[wc_v_cols_[b][d]] = match.col_dual[d] + shift;
        wb += x[wc_v_cols_[b][d]];
      }
      block_w.push_back(wb);
      w = std::max(w, wb);
    }
    // A block below the largest w meets its sum row by a looser v_0.
    for (std::size_t b = 0; b < block_w.size(); ++b) x[wc_v_cols_[b][0]] += w - block_w[b];
    x[wc_var_] = w;
  }
  if (uni_var_ >= 0) {
    double u = 0.0;
    const int num_blocks = config_.fold_dihedral ? 1 : kNumDirs;
    for (int dir = 0; dir < num_blocks; ++dir) {
      double load = 0.0;
      for (int v = 0; v < num_flow_vars_; ++v) load += dir_count_[v][dir] * x[v];
      u = std::max(u, load / n);
    }
    x[uni_var_] = u;
  }
  for (std::size_t i = 0; i < avg_vars_.size(); ++i) {
    double gamma = 0.0;
    for (int c = 0; c < nc; ++c) gamma = std::max(gamma, perm_load(config_.samples[i], c));
    x[avg_vars_[i]] = gamma;
  }
  return x;
}

const lp::Basis& SymmetricArcDesign::flow_crash_hints() {
  if (crash_bound_ == config_.locality_equals) return crash_basis_;
  auto& met = DesignMetrics::get();
  met.crash_points.add(1);
  crash_basis_ = lp::crash_from_point(model_, start_point());
  crash_bound_ = config_.locality_equals;
  return crash_basis_;
}

DesignResult SymmetricArcDesign::solve(const lp::SimplexOptions& opts,
                                       const lp::Basis* warm) {
  auto& met = DesignMetrics::get();
  met.solves.add(1);
  lp::Solution sol;
  {
    trace::Span t("design.solve", met.t_solve);
    t.attr("rows", model_.num_rows());
    t.attr("cols", model_.num_cols());
    t.attr("nnz", static_cast<std::int64_t>(model_.num_terms()));
    const bool cold = warm == nullptr || warm->empty();
    const lp::Basis* start = cold ? &flow_crash_hints() : warm;
    sol = lp::solve(model_, opts, start);
    if (cold && !start->empty()) {
      // lp::solve labels every start basis alike; a crash reads
      // crash-accepted or crash-repaired, and a rejected one is a cold start.
      met.crash_attempts.add(1);
      if (sol.warm_start == "accepted" || sol.warm_start == "repaired") {
        (sol.warm_start == "accepted" ? met.crash_accepted : met.crash_repaired).add(1);
        sol.warm_start = "crash-" + sol.warm_start;
      } else {
        met.crash_rejected.add(1);
        sol.warm_start = "cold";
      }
    }
    t.attr("status", lp::to_string(sol.status));
    t.attr("warm_start", sol.warm_start);
    t.attr("dual_iterations", static_cast<std::int64_t>(sol.dual_iterations));
  }
  DesignResult res = detail::design_result(sol);
  if (sol.status != lp::Status::Optimal) return res;
  met.last_objective.set(sol.objective);
  met.objectives.record(sol.objective);
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  solution_flows_.resize(static_cast<std::size_t>(n - 1) * nc);
  double total = 0.0;
  for (int e = 1; e < n; ++e) {
    for (int c = 0; c < nc; ++c) {
      const double f = sol.x[flow_var(e, c)];
      solution_flows_[(e - 1) * nc + c] = f;
      total += f;
    }
  }
  res.avg_hops = total / n;
  return res;
}

TorusRouting SymmetricArcDesign::routing(const std::string& name) const {
  TCR_REQUIRE(!solution_flows_.empty(), "no stored solution; call solve() first");
  obs::ScopedTimer t(DesignMetrics::get().t_decompose);
  const int n = torus_.num_nodes(), nc = torus_.num_channels();
  TorusRouting r(torus_, name);
  for (int e = 1; e < n; ++e) {
    std::vector<double> flow(solution_flows_.begin() + (e - 1) * nc,
                             solution_flows_.begin() + e * nc);
    for (auto& wp : decompose_flow(torus_, e, std::move(flow))) {
      r.add_path(e, std::move(wp.path), wp.weight);
    }
  }
  r.normalize();
  return r;
}

std::vector<WeightedPath> decompose_flow(const Torus& torus, int e, std::vector<double> flow,
                                         double eps) {
  TCR_REQUIRE(e != 0, "offset must be nonzero");
  std::vector<WeightedPath> out;
  const int n = torus.num_nodes();
  std::vector<int> pred(static_cast<std::size_t>(n));

  for (;;) {
    // BFS from 0 to e along channels with remaining flow.
    std::fill(pred.begin(), pred.end(), -1);
    std::queue<int> q;
    q.push(0);
    pred[0] = -2;
    while (!q.empty() && pred[e] == -1) {
      const int nd = q.front();
      q.pop();
      for (int dir = 0; dir < kNumDirs; ++dir) {
        const int c = torus.channel(nd, static_cast<Dir>(dir));
        if (flow[c] <= eps) continue;
        const int to = torus.channel_dst(c);
        if (pred[to] == -1) {
          pred[to] = c;
          q.push(to);
        }
      }
    }
    if (pred[e] == -1) break;

    // Recover the path and the bottleneck flow.
    std::vector<int> channels;
    double delta = lp::kInf;
    for (int nd = e; nd != 0;) {
      const int c = pred[nd];
      channels.push_back(c);
      delta = std::min(delta, flow[c]);
      nd = torus.channel_src(c);
    }
    std::reverse(channels.begin(), channels.end());
    for (int c : channels) flow[c] -= delta;

    Path p;
    p.src = 0;
    p.dst = e;
    p.channels = std::move(channels);
    out.push_back({std::move(p), delta});
  }
  return out;
}

// ---------------------------------------------------------------------
// General (unreduced) formulations.

namespace {

struct GeneralVars {
  int n = 0, nc = 0;
  int flow_var(int s, int d, int c) const { return (s * n + d) * nc + c; }
};

void add_general_flows(const Digraph& g, Model& model, GeneralVars& vars) {
  vars.n = g.num_nodes();
  vars.nc = g.num_channels();
  for (int s = 0; s < vars.n; ++s) {
    for (int d = 0; d < vars.n; ++d) {
      for (int c = 0; c < vars.nc; ++c) {
        model.add_col(0.0, (s == d) ? 0.0 : lp::kInf, 0.0);
      }
    }
  }
  for (int s = 0; s < vars.n; ++s) {
    for (int d = 0; d < vars.n; ++d) {
      if (s == d) continue;
      for (int nd = 0; nd < vars.n; ++nd) {
        const double rhs = (nd == d) ? 1.0 : (nd == s ? -1.0 : 0.0);
        const int row = model.add_row(RowType::EQ, rhs);
        for (int c : g.in_channels(nd)) model.add_term(row, vars.flow_var(s, d, c), 1.0);
        for (int c : g.out_channels(nd)) model.add_term(row, vars.flow_var(s, d, c), -1.0);
      }
    }
  }
}

void extract_general(const GeneralVars& vars, const lp::Solution& sol,
                     GeneralDesignResult& res) {
  res.flows.assign(vars.n * vars.n, std::vector<double>(vars.nc, 0.0));
  for (int s = 0; s < vars.n; ++s)
    for (int d = 0; d < vars.n; ++d)
      for (int c = 0; c < vars.nc; ++c)
        res.flows[s * vars.n + d][c] = sol.x[vars.flow_var(s, d, c)];
}

}  // namespace

GeneralDesignResult general_capacity_design(const Digraph& g, const lp::SimplexOptions& opts) {
  Model model;
  GeneralVars vars;
  add_general_flows(g, model, vars);
  const int w = model.add_col(0.0, lp::kInf, 1.0);
  for (int c = 0; c < vars.nc; ++c) {
    const int row = model.add_row(RowType::LE, 0.0);
    for (int s = 0; s < vars.n; ++s) {
      for (int d = 0; d < vars.n; ++d) {
        if (s != d) model.add_term(row, vars.flow_var(s, d, c), 1.0 / vars.n);
      }
    }
    model.add_term(row, w, -g.channel(c).bandwidth);
  }
  const lp::Solution sol = lp::solve(model, opts);
  GeneralDesignResult res;
  res.status = sol.status;
  res.certificate = sol.certificate;
  if (sol.status != lp::Status::Optimal) return res;
  res.objective = sol.objective;
  extract_general(vars, sol, res);
  return res;
}

GeneralDesignResult general_worst_case_design(const Digraph& g, const lp::SimplexOptions& opts) {
  Model model;
  GeneralVars vars;
  add_general_flows(g, model, vars);
  const int w = model.add_col(0.0, lp::kInf, 1.0);
  for (int c = 0; c < vars.nc; ++c) {
    std::vector<int> u(vars.n), v(vars.n);
    for (int s = 0; s < vars.n; ++s)
      u[s] = (s == 0) ? model.add_col(0.0, 0.0, 0.0) : model.add_col(-lp::kInf, lp::kInf, 0.0);
    for (int d = 0; d < vars.n; ++d) v[d] = model.add_col(-lp::kInf, lp::kInf, 0.0);
    for (int s = 0; s < vars.n; ++s) {
      for (int d = 0; d < vars.n; ++d) {
        const int row = model.add_row(RowType::LE, 0.0);
        if (s != d) model.add_term(row, vars.flow_var(s, d, c), 1.0);
        model.add_term(row, v[d], -1.0);
        model.add_term(row, u[s], 1.0);
      }
    }
    const int sum_row = model.add_row(RowType::EQ, 0.0);
    for (int d = 0; d < vars.n; ++d) model.add_term(sum_row, v[d], 1.0);
    for (int s = 0; s < vars.n; ++s) model.add_term(sum_row, u[s], -1.0);
    model.add_term(sum_row, w, -g.channel(c).bandwidth);
  }
  const lp::Solution sol = lp::solve(model, opts);
  GeneralDesignResult res;
  res.status = sol.status;
  res.certificate = sol.certificate;
  if (sol.status != lp::Status::Optimal) return res;
  res.objective = sol.objective;
  extract_general(vars, sol, res);
  return res;
}

}  // namespace tcr
