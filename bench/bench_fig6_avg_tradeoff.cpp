// Figure 6: average-case throughput (fraction of capacity) vs normalized
// locality on the k-ary 2-cube. The optimal curve solves LP (15) on
// permutation design samples; the algorithm points (DOR/ROMM/RLB/RLBth/VAL/
// IVAL plus designed 2TURN / 2TURNA / AVG-OPT) are evaluated on dense
// doubly-stochastic samples, eq. (9) with |X| = --samples (default 100).
//
// Flags: --k (default 8), --points (default 9), --samples (default 100),
// --design-samples (default 12), --skip-curve, --skip-design, --warm/--cold/
// --chains (warm-start chaining, see bench::sweep_config), --threads N
// (solve the sweep's chains on a pool), --json <path>
// (one JSON record per curve point / designed routing / algorithm point;
// the curve's obs snapshot arrives in a trailing sweep_summary record),
// --trace <path> (Perfetto span trace; see bench::TraceOutput), --perf
// (hardware-counter/rusage perf block per record; see bench::JsonOutput),
// plus the run-control flags --deadline/--budget/--rss-limit-mb/
// --checkpoint/--resume (see bench::RunControl).
#include "bench_common.hpp"

#include "tcr/core/design.hpp"
#include "tcr/core/path_design.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/metrics/average_case.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace tcr;
  const Cli cli(argc, argv);
  const int k = cli.get_int("k", 8);
  const int points = cli.get_int("points", 5);
  const int eval_count = cli.get_int("samples", 100);
  const int design_count = cli.get_int("design-samples", 12);
  SweepConfig sweep = bench::sweep_config(cli);
  bench::RunControl rc(cli);
  lp::SimplexOptions opts;
  rc.apply(sweep, opts);
  bench::JsonOutput jout(cli, "fig6_avg_tradeoff",
                         obs::Json::object()
                             .set("k", k)
                             .set("points", points)
                             .set("samples", eval_count)
                             .set("design_samples", design_count)
                             .set("warm_start", sweep.warm_start)
                             .set("chains", sweep.chains)
                             .set("skip_curve", cli.has("skip-curve"))
                             .set("skip_design", cli.has("skip-design")));
  bench::TraceOutput trace(cli);
  bench::HeartbeatOutput heartbeat(cli, "fig6_avg_tradeoff", &rc.token());

  bench::banner("Figure 6: average-case throughput vs locality, " + std::to_string(k) +
                    "-ary 2-cube",
                "curve = LP (15) on permutation samples; points = eq. (9)");
  const Torus torus(k);
  Rng rng(606);
  std::vector<std::vector<int>> design_samples;
  for (int i = 0; i < design_count; ++i) design_samples.push_back(rng.permutation(torus.num_nodes()));
  const auto eval_samples = sample_traffic_set(rng, torus.num_nodes(), eval_count, "sinkhorn");
  const double ideal = torus.ideal_uniform_load();

  if (!cli.has("skip-curve")) {
    Stopwatch sw;
    const auto pool = bench::sweep_pool(cli);
    const std::vector<TradeoffPoint> curve = average_case_tradeoff(
        torus, design_samples, locality_grid(1.0, 2.0, points), opts, pool.get(), sweep);
    std::cout << "curve solved in " << sw.seconds() << " s ("
              << (sweep.warm_start ? "warm" : "cold") << " starts)\n\n";
    rc.write_sweep_report("fig6_avg_tradeoff", curve);
    for (const TradeoffPoint& pt : curve) {
      auto fields = obs::Json::object();
      fields.set("series", "optimal_curve")
          .set("k", k)
          .set("locality", pt.locality)
          .set("capacity_fraction", pt.capacity_fraction)  // NaN -> null when unsolved
          .set("status", lp::to_string(pt.status))
          .set("warm_start", pt.warm_start)
          .set("certificate", bench::certificate_json(pt.certificate));
      if (pt.provenance != "measured") {
        fields.set("provenance", pt.provenance).set("note", pt.note);
      }
      jout.record(std::move(fields));
    }
    auto summary = obs::Json::object();
    summary.set("series", "sweep_summary")
        .set("k", k)
        .set("points", points)
        .set("warm_start", sweep.warm_start)
        .set("chains", sweep.chains);
    jout.point(std::move(summary));
    TextTable curve_table({"H_avg/minimal (L)", "optimal Theta_avg/cap", "status"});
    for (const auto& pt : curve) {
      curve_table.add_row({TextTable::num(pt.locality, 3),
                           pt.solved() ? TextTable::num(pt.capacity_fraction, 4) : "unsolved",
                           bench::status_line(pt.status, pt.note)});
    }
    curve_table.print(std::cout);
  }

  auto algorithms = bench::table1_algorithms(torus);
  if (!cli.has("skip-design")) {
    auto design_point = [&](const std::string& name, lp::Status status,
                            const std::string& note, const lp::Certificate& cert) {
      if (status != lp::Status::Optimal) {
        std::cout << name << " design: " << bench::status_line(status, note) << "\n";
      }
      auto fields = obs::Json::object();
      fields.set("series", "design_solve")
          .set("k", k)
          .set("algorithm", name)
          .set("status", lp::to_string(status))
          .set("certificate", bench::certificate_json(cert));
      jout.point(std::move(fields));
    };
    auto two_turn = design_two_turn(torus);
    design_point("2TURN", two_turn.status, two_turn.note, two_turn.certificate);
    if (two_turn.status == lp::Status::Optimal) algorithms.push_back(two_turn.routing);
    auto two_turn_a = design_two_turn_avg(torus, design_samples);
    design_point("2TURNA", two_turn_a.status, two_turn_a.note, two_turn_a.certificate);
    if (two_turn_a.status == lp::Status::Optimal) algorithms.push_back(two_turn_a.routing);
    auto avg_opt = design_average_case_optimal(torus, design_samples);
    design_point("AVG-OPT", avg_opt.status, avg_opt.note, avg_opt.certificate);
    if (avg_opt.status == lp::Status::Optimal) algorithms.push_back(avg_opt.routing);
    auto min_avg = design_minimal_avg(torus, design_samples);
    design_point("MIN-A", min_avg.status, min_avg.note, min_avg.certificate);
    if (min_avg.status == lp::Status::Optimal) algorithms.push_back(min_avg.routing);
  }

  std::cout << "\nalgorithm points (dense doubly-stochastic evaluation, |X|=" << eval_count
            << "):\n";
  TextTable pts({"algorithm", "H_avg/minimal", "Theta_avg/cap"});
  for (const auto& r : algorithms) {
    const double loc = r.normalized_locality();
    const double avg = ideal * average_case(r, eval_samples).approx_throughput;
    pts.add_row_mixed({r.name()}, {loc, avg});
    auto fields = obs::Json::object();
    fields.set("series", "algorithm")
        .set("k", k)
        .set("algorithm", r.name())
        .set("locality", loc)
        .set("avg_capacity_fraction", avg);
    jout.point(std::move(fields));
  }
  pts.print(std::cout);
  std::cout << "\npaper shape (k=8): max average-case ~0.628 of capacity; VAL at 0.50;\n"
               "IVAL within ~8.4% and 2TURN within ~6.4% of the maximum; 2TURNA within\n"
               "~4.6%; the minimal-path average-optimal matches ROMM (§5.4).\n";
  return rc.finish();
}
