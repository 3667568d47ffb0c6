// Figure 1: the optimal tradeoff between worst-case throughput (x-axis,
// fraction of capacity) and normalized average path length (y-axis) on the
// k-ary 2-cube, with the existing algorithms placed in the same space.
//
// Each curve point solves LP (10): minimize gamma_wc subject to H_avg = L.
//
// Flags: --k (default 8), --points (default 11), --warm/--cold/--chains
// (warm-start chaining, see bench::sweep_config), --threads N (solve the
// sweep's chains on a pool; results are identical to serial), --json <path>
// (one JSON record per curve point / algorithm; the curve's obs snapshot —
// including the lp.warmstart.* counters — arrives in a trailing
// sweep_summary record), --trace <path> (Perfetto span trace of the whole
// run: per-point sweep spans with warm-start adoption attributes plus the
// sampled simplex convergence telemetry; see bench::TraceOutput), --perf
// (hardware-counter/rusage perf block per record, counter attrs on the
// sweep.point spans; see bench::JsonOutput and tcr::perf), plus the
// run-control flags --deadline/--budget/--rss-limit-mb/--checkpoint/--resume
// (see bench::RunControl: budget-degraded points are interpolated per §5.3
// and flagged, a SIGTERM mid-sweep leaves a resumable journal, and --resume
// reproduces the uninterrupted run bitwise in <journal>.report.json).
#include "bench_common.hpp"

#include "tcr/core/tradeoff.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace tcr;
  const Cli cli(argc, argv);
  const int k = cli.get_int("k", 8);
  const int points = cli.get_int("points", 9);
  SweepConfig sweep = bench::sweep_config(cli);
  const int threads = cli.get_int("threads", 1);
  bench::RunControl rc(cli);
  lp::SimplexOptions opts;
  rc.apply(sweep, opts);
  bench::JsonOutput jout(cli, "fig1_wc_tradeoff",
                         obs::Json::object()
                             .set("k", k)
                             .set("points", points)
                             .set("warm_start", sweep.warm_start)
                             .set("chains", sweep.chains)
                             .set("threads", threads));
  bench::TraceOutput trace(cli);
  bench::HeartbeatOutput heartbeat(cli, "fig1_wc_tradeoff", &rc.token());

  bench::banner("Figure 1: worst-case throughput vs locality, " + std::to_string(k) +
                    "-ary 2-cube",
                "optimal curve = LP (10); points = Hungarian-exact worst case");
  const Torus torus(k);

  // One sweep call: the constraint matrix is built once per chain and each
  // point warm-starts from the previous basis (unless --cold).
  Stopwatch sw;
  const auto pool = bench::sweep_pool(cli);
  const std::vector<TradeoffPoint> curve = worst_case_tradeoff(
      torus, locality_grid(1.0, 2.0, points), opts, pool.get(), sweep);
  std::cout << "curve solved in " << sw.seconds() << " s (" << points
            << " locality-constrained LPs, " << (sweep.warm_start ? "warm" : "cold")
            << " starts)\n\n";
  rc.write_sweep_report("fig1_wc_tradeoff", curve);

  for (const TradeoffPoint& pt : curve) {
    auto fields = obs::Json::object();
    fields.set("series", "optimal_curve")
        .set("k", k)
        .set("locality", pt.locality)
        .set("capacity_fraction", pt.capacity_fraction)  // NaN -> null when unsolved
        .set("status", lp::to_string(pt.status))
        .set("warm_start", pt.warm_start)
        .set("certificate", bench::certificate_json(pt.certificate));
    // Flag anything that is not a plain measurement (degraded values are
    // §5.3 interpolations, not solves — gates must see the difference).
    if (pt.provenance != "measured") {
      fields.set("provenance", pt.provenance).set("note", pt.note);
    }
    jout.record(std::move(fields));
  }
  {
    auto fields = obs::Json::object();
    fields.set("series", "sweep_summary")
        .set("k", k)
        .set("points", points)
        .set("warm_start", sweep.warm_start)
        .set("chains", sweep.chains);
    jout.point(std::move(fields));
  }

  TextTable curve_table({"H_avg/minimal (L)", "optimal Theta_wc/cap", "status"});
  for (const auto& pt : curve) {
    std::string value = pt.solved() ? TextTable::num(pt.capacity_fraction, 4) : "unsolved";
    if (pt.degraded()) {
      value = std::isfinite(pt.capacity_fraction)
                  ? TextTable::num(pt.capacity_fraction, 4) + " (interp)"
                  : "degraded";
    }
    curve_table.add_row({TextTable::num(pt.locality, 3), value,
                         bench::status_line(pt.status, pt.note)});
  }
  curve_table.print(std::cout);

  std::cout << "\nexisting algorithms in the same space:\n";
  TextTable pts({"algorithm", "H_avg/minimal", "Theta_wc/cap"});
  for (const auto& r : bench::table1_algorithms(torus)) {
    const double loc = r.normalized_locality();
    const double wc = worst_case_capacity_fraction(r);
    pts.add_row_mixed({r.name()}, {loc, wc});
    auto fields = obs::Json::object();
    fields.set("series", "algorithm")
        .set("k", k)
        .set("algorithm", r.name())
        .set("locality", loc)
        .set("capacity_fraction", wc);
    jout.point(std::move(fields));
  }
  pts.print(std::cout);
  std::cout << "\npaper shape: DOR pins the minimal end of the Pareto curve; VAL reaches\n"
               "the 0.5 worst-case optimum at locality 2; VAL/RLB/RLBth sit well above\n"
               "the optimal curve.\n";
  return rc.finish();
}
