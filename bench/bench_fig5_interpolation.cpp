// Figure 5: interpolated routing algorithms (§5.3) between DOR and IVAL
// (dashed curve) and between DOR and 2TURN (dotted curve) in the Figure-1
// tradeoff space. For every alpha the worst case is computed *exactly* via
// Hungarian matching and compared with the harmonic-mean bound (eq. 14),
// which is tight when the endpoints share a worst-case permutation
// (footnote 5). Also reports the distance to the optimal tradeoff curve.
//
// Flags: --k (default 8), --alphas (default 9), --curve-points (default 11),
// --skip-curve (skip the optimal-curve LPs used for the gap column),
// --warm/--cold/--chains (warm-start chaining for the curve sweep),
// --threads N (solve the curve's chains on a pool), --json <path> (one JSON
// record per interpolation point), --perf (hardware-counter/rusage perf
// block per record; see bench::JsonOutput).
#include "bench_common.hpp"

#include <cmath>

#include "tcr/core/path_design.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/routing/interpolate.hpp"

namespace {

// Locality of the optimal curve at a given worst-case fraction (inverse
// interpolation of the Figure-1 Pareto curve).
double optimal_locality_at(const std::vector<tcr::TradeoffPoint>& curve, double frac) {
  // Points are ordered by locality with non-decreasing throughput; take the
  // FIRST point reaching `frac` so the plateau at the worst-case optimum
  // maps to its leftmost (smallest-locality) attainment.
  using tcr::TradeoffPoint;
  const TradeoffPoint* lo = nullptr;
  const TradeoffPoint* last = nullptr;
  for (const auto& pt : curve) {
    if (!pt.solved()) continue;  // unsolved points carry NaN, never interpolate
    last = &pt;
    if (pt.capacity_fraction >= frac - 1e-12) {
      if (lo == nullptr || lo->capacity_fraction >= frac - 1e-12) return pt.locality;
      const double t =
          (frac - lo->capacity_fraction) / (pt.capacity_fraction - lo->capacity_fraction);
      return lo->locality + t * (pt.locality - lo->locality);
    }
    lo = &pt;
  }
  return last != nullptr ? last->locality : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcr;
  const Cli cli(argc, argv);
  const int k = cli.get_int("k", 8);
  const int alphas = cli.get_int("alphas", 7);
  bench::JsonOutput jout(cli, "fig5_interpolation",
                         obs::Json::object()
                             .set("k", k)
                             .set("alphas", alphas)
                             .set("curve_points", cli.get_int("curve-points", 9))
                             .set("skip_curve", cli.has("skip-curve")));
  bench::TraceOutput trace(cli);
  bench::HeartbeatOutput heartbeat(cli, "fig5_interpolation", nullptr);

  bench::banner("Figure 5: interpolated routing algorithms, " + std::to_string(k) +
                    "-ary 2-cube",
                "DOR<->IVAL and DOR<->2TURN; bound (14) vs exact worst case");
  const Torus torus(k);
  const TorusRouting dor = make_dor(torus);
  const TorusRouting ival = make_ival(torus);

  std::vector<TradeoffPoint> curve;
  if (!cli.has("skip-curve")) {
    const auto pool = bench::sweep_pool(cli);
    curve = worst_case_tradeoff(torus, locality_grid(1.0, 2.0, cli.get_int("curve-points", 9)),
                                {}, pool.get(),
                                bench::sweep_config(cli));
  }

  const auto two_turn = design_two_turn(torus);
  if (two_turn.status != lp::Status::Optimal) {
    std::cout << "2TURN design: " << bench::status_line(two_turn.status, two_turn.note) << "\n";
  }
  {
    auto fields = obs::Json::object();
    fields.set("series", "design_solve")
        .set("k", k)
        .set("algorithm", "2TURN")
        .set("status", lp::to_string(two_turn.status))
        .set("certificate", bench::certificate_json(two_turn.certificate));
    jout.point(std::move(fields));
  }
  std::vector<std::pair<std::string, const TorusRouting*>> families = {{"DOR<->IVAL", &ival}};
  if (two_turn.status == lp::Status::Optimal) families.push_back({"DOR<->2TURN", &two_turn.routing});

  for (const auto& [label, other] : families) {
    std::cout << "\n" << label << ":\n";
    TextTable table({"alpha(DOR)", "H_avg/min", "Theta_wc/cap exact", "bound (14)",
                     "% above optimal locality"});
    const double th_dor = worst_case_capacity_fraction(dor);
    const double th_other = worst_case_capacity_fraction(*other);
    double max_gap = 0.0;
    for (int i = 0; i < alphas; ++i) {
      const double alpha = static_cast<double>(i) / (alphas - 1);
      const TorusRouting mix = interpolate(dor, *other, alpha);
      const double frac = worst_case_capacity_fraction(mix);
      const double bound = interpolation_throughput_bound(th_dor, th_other, alpha);
      double gap = -1.0;
      if (!curve.empty()) {
        const double opt_loc = optimal_locality_at(curve, frac);
        gap = 100.0 * (mix.normalized_locality() - opt_loc) / opt_loc;
        max_gap = std::max(max_gap, gap);
      }
      table.add_row_mixed({TextTable::num(alpha, 2)},
                          {mix.normalized_locality(), frac, bound, gap});
      auto fields = obs::Json::object();
      fields.set("family", label)
          .set("k", k)
          .set("alpha", alpha)
          .set("locality", mix.normalized_locality())
          .set("wc_capacity_fraction", frac)
          .set("bound_eq14", bound)
          .set("pct_above_optimal_locality", gap);
      jout.point(std::move(fields));
    }
    table.print(std::cout);
    if (!curve.empty()) {
      std::cout << "max distance above optimal locality: " << TextTable::num(max_gap, 1)
                << "% (paper: <=17% for DOR<->IVAL, <=10% for DOR<->2TURN)\n";
    }
  }
  return 0;
}
