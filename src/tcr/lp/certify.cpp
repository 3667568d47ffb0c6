#include "tcr/lp/certify.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tcr/lin/sparse.hpp"
#include "tcr/obs/registry.hpp"

namespace tcr::lp {

namespace {

struct CertifyMetrics {
  obs::Counter& checks = obs::Registry::instance().counter("lp.certify.checks");
  obs::Counter& failures = obs::Registry::instance().counter("lp.certify.failures");

  static CertifyMetrics& get() {
    static CertifyMetrics m;
    return m;
  }
};

}  // namespace

double Certificate::worst() const {
  double w = primal_residual;
  w = std::max(w, bound_violation);
  w = std::max(w, objective_residual);
  w = std::max(w, dual_residual);
  w = std::max(w, dual_violation);
  w = std::max(w, row_dual_violation);
  w = std::max(w, complementarity);
  w = std::max(w, duality_gap);
  return w;
}

std::string Certificate::summary() const {
  if (!checked) return "not certified";
  std::ostringstream os;
  os << (pass ? "certified" : "certificate FAILED");
  os.precision(3);
  os << " (primal " << std::scientific << primal_residual << ", dual " << dual_violation
     << ", comp " << complementarity << ", gap " << duality_gap << ")";
  if (!pass && !reason.empty()) os << ": " << reason;
  return os.str();
}

CertifyOptions CertifyOptions::from_solver_tols(double feas_tol, double opt_tol, double factor) {
  CertifyOptions o;
  o.feas_tol = std::max(o.feas_tol, factor * feas_tol);
  o.opt_tol = std::max(o.opt_tol, factor * opt_tol);
  o.res_tol = std::max(o.res_tol, factor * std::max(feas_tol, opt_tol));
  o.comp_tol = std::max(o.comp_tol, 10.0 * factor * opt_tol);
  o.gap_tol = std::max(o.gap_tol, factor * std::max(feas_tol, opt_tol));
  return o;
}

const Certificate& worse_certificate(const Certificate& a, const Certificate& b) {
  if (a.checked != b.checked) return a.checked ? b : a;  // unchecked is worse
  if (a.pass != b.pass) return a.pass ? b : a;
  return a.worst() >= b.worst() ? a : b;
}

Certificate certify(const Model& model, const Solution& sol, const CertifyOptions& opts) {
  auto& met = CertifyMetrics::get();
  met.checks.add(1);
  Certificate cert;
  cert.checked = true;
  cert.pass = false;

  const int m = model.num_rows();
  const int n = model.num_cols();

  if (sol.status != Status::Optimal) {
    cert.reason = std::string("status is ") + to_string(sol.status) + ", nothing to certify";
    met.failures.add(1);
    return cert;
  }
  if (static_cast<int>(sol.x.size()) != n || static_cast<int>(sol.duals.size()) != m ||
      static_cast<int>(sol.reduced.size()) != n) {
    cert.reason = "solution vectors have the wrong dimensions";
    met.failures.add(1);
    return cert;
  }
  for (double v : sol.x) {
    if (!std::isfinite(v)) {
      cert.reason = "non-finite primal value";
      met.failures.add(1);
      return cert;
    }
  }
  for (double v : sol.duals) {
    if (!std::isfinite(v)) {
      cert.reason = "non-finite dual value";
      met.failures.add(1);
      return cert;
    }
  }
  for (double v : sol.reduced) {
    if (!std::isfinite(v)) {
      cert.reason = "non-finite reduced cost";
      met.failures.add(1);
      return cert;
    }
  }

  // Work in minimize convention: the solver reports duals/reduced costs in
  // the model's sense, so for a maximization both flip sign along with the
  // costs and the KKT conditions below apply unchanged.
  const double sign = model.sense() == Sense::Maximize ? -1.0 : 1.0;

  // One pass over the nonzeros: row activity, row scale (sum |a_ij x_j|,
  // for a relative residual) and the independent reduced costs c - A'y.
  // The pass runs column by column, so each row sums in column order and
  // each column in row order, whatever order the model's terms were added
  // in.
  const SparseMatrix a(m, n, model.triplets());
  std::vector<double> activity(static_cast<std::size_t>(m), 0.0);
  std::vector<double> row_scale(static_cast<std::size_t>(m), 0.0);
  std::vector<double> dhat(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    dhat[j] = sign * model.cost(j);
    for (std::size_t k = a.col_begin(j); k < a.col_end(j); ++k) {
      const int i = a.row_index(k);
      activity[i] += a.value(k) * sol.x[j];
      row_scale[i] += std::abs(a.value(k) * sol.x[j]);
      dhat[j] -= a.value(k) * sign * sol.duals[i];
    }
  }

  // ---- primal feasibility + row complementarity + row dual signs ----
  double dual_obj = 0.0;  // b'y part, min convention
  for (int i = 0; i < m; ++i) {
    const double b = model.rhs(i);
    const double y = sign * sol.duals[i];
    const double scale = 1.0 + std::abs(b) + row_scale[i];
    double viol = 0.0;   // infeasibility, absolute
    double slack = 0.0;  // distance from the binding side, absolute
    switch (model.row_type(i)) {
      case RowType::LE:
        viol = activity[i] - b;
        slack = std::max(b - activity[i], 0.0);
        // Min convention: an LE row can only push the objective down, y <= 0.
        cert.row_dual_violation =
            std::max(cert.row_dual_violation, y / (1.0 + std::abs(y)));
        break;
      case RowType::GE:
        viol = b - activity[i];
        slack = std::max(activity[i] - b, 0.0);
        cert.row_dual_violation =
            std::max(cert.row_dual_violation, -y / (1.0 + std::abs(y)));
        break;
      case RowType::EQ:
        viol = std::abs(activity[i] - b);
        break;
    }
    cert.primal_residual = std::max(cert.primal_residual, viol / scale);
    cert.complementarity =
        std::max(cert.complementarity, std::abs(y) * slack / (scale * (1.0 + std::abs(y))));
    dual_obj += b * y;
  }

  // ---- bounds, column dual feasibility and complementarity, gap terms ----
  double primal_obj = 0.0;  // c'x, min convention
  for (int j = 0; j < n; ++j) {
    const double x = sol.x[j];
    const double lo = model.lower(j), up = model.upper(j);
    const double c = sign * model.cost(j);
    const double d = dhat[j];
    primal_obj += c * x;

    const double xscale = 1.0 + std::abs(x);
    if (std::isfinite(lo))
      cert.bound_violation = std::max(cert.bound_violation, (lo - x) / xscale);
    if (std::isfinite(up))
      cert.bound_violation = std::max(cert.bound_violation, (x - up) / xscale);

    // Reported reduced cost must match the independent one.
    cert.dual_residual = std::max(
        cert.dual_residual, std::abs(d - sign * sol.reduced[j]) / (1.0 + std::abs(c)));

    // Sign conditions judged by where x actually sits (not the solver's
    // basis flags): interior => d ~ 0; at lower => d >= 0; at upper => d <= 0.
    // Fixed columns (lo == up) admit any reduced cost.
    if (lo < up) {
      const double atol = opts.feas_tol * xscale;
      const bool at_lower = std::isfinite(lo) && x <= lo + atol;
      const bool at_upper = std::isfinite(up) && x >= up - atol;
      const double dscale = 1.0 + std::abs(c) + std::abs(d);
      if (!at_lower && !at_upper) {
        cert.dual_violation = std::max(cert.dual_violation, std::abs(d) / dscale);
      } else if (at_lower && !at_upper) {
        cert.dual_violation = std::max(cert.dual_violation, -d / dscale);
      } else if (at_upper && !at_lower) {
        cert.dual_violation = std::max(cert.dual_violation, d / dscale);
      }
      // Complementarity on the finite non-binding side.
      if (std::isfinite(lo) && d > 0.0) {
        cert.complementarity =
            std::max(cert.complementarity, d * (x - lo) / (dscale * xscale));
      }
      if (std::isfinite(up) && d < 0.0) {
        cert.complementarity =
            std::max(cert.complementarity, -d * (up - x) / (dscale * xscale));
      }
    }

    // Dual objective bound terms: multiplier d+ sits on the lower bound,
    // d- on the upper. An infinite bound with the matching multiplier
    // active is a dual-feasibility failure recorded above; skip the term
    // rather than produce inf * 0.
    if (d > 0.0 && std::isfinite(lo)) dual_obj += d * lo;
    if (d < 0.0 && std::isfinite(up)) dual_obj += d * up;
  }

  cert.objective_residual =
      std::abs(sign * sol.objective - primal_obj) / (1.0 + std::abs(primal_obj));
  cert.duality_gap =
      std::abs(primal_obj - dual_obj) / (1.0 + std::abs(primal_obj) + std::abs(dual_obj));

  // ---- verdict ----
  struct Check {
    const char* what;
    double value;
    double tol;
  };
  const Check checks[] = {
      {"primal row residual", cert.primal_residual, opts.feas_tol},
      {"bound violation", cert.bound_violation, opts.feas_tol},
      {"objective mismatch", cert.objective_residual, opts.res_tol},
      {"reduced-cost mismatch", cert.dual_residual, opts.res_tol},
      {"dual sign violation", cert.dual_violation, opts.opt_tol},
      {"row-dual sign violation", cert.row_dual_violation, opts.opt_tol},
      {"complementary slackness", cert.complementarity, opts.comp_tol},
      {"duality gap", cert.duality_gap, opts.gap_tol},
  };
  cert.pass = true;
  double worst_excess = 0.0;
  for (const Check& c : checks) {
    if (c.value > c.tol && c.value / c.tol > worst_excess) {
      cert.pass = false;
      worst_excess = c.value / c.tol;
      std::ostringstream os;
      os.precision(3);
      os << c.what << " " << std::scientific << c.value << " exceeds " << c.tol;
      cert.reason = os.str();
    }
  }
  if (!cert.pass) met.failures.add(1);
  return cert;
}

}  // namespace tcr::lp
