// Table 1 + the numeric points plotted in Figures 1 and 6: for every
// algorithm the paper discusses (DOR, ROMM, RLB, RLBth, VAL, IVAL, plus the
// LP-designed 2TURN / 2TURNA), print normalized average path length,
// worst-case throughput and average-case throughput as fractions of
// capacity.
//
// Flags: --k <radix> (default 8), --samples <n> eval traffic samples
// (default 100), --design-samples <n> permutations inside the 2TURNA LP
// (default 32), --skip-design (skip the LP-designed algorithms),
// --json <path> (one JSON-lines record per design solve and per algorithm
// row, each carrying the obs snapshot of the work it covers), --perf
// (hardware-counter/rusage perf block per record; see bench::JsonOutput),
// plus the run-control flags --deadline/--budget/--rss-limit-mb (see
// bench::RunControl; a fired token ends the design solves cancelled and
// the run exits 7).
#include "bench_common.hpp"

#include "tcr/core/path_design.hpp"
#include "tcr/metrics/average_case.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace tcr;
  const Cli cli(argc, argv);
  const int k = cli.get_int("k", 8);
  const int eval_samples = cli.get_int("samples", 100);
  const int design_samples = cli.get_int("design-samples", 16);
  bench::RunControl rc(cli);
  lp::SimplexOptions opts;
  rc.apply(opts);
  bench::JsonOutput jout(cli, "table1_algorithms",
                         obs::Json::object()
                             .set("k", k)
                             .set("samples", eval_samples)
                             .set("design_samples", design_samples)
                             .set("skip_design", cli.has("skip-design")));
  bench::TraceOutput trace(cli);
  bench::HeartbeatOutput heartbeat(cli, "table1_algorithms", &rc.token());

  bench::banner("Table 1 / Figure 1 & 6 algorithm points — " + std::to_string(k) +
                    "-ary 2-cube",
                "Towles, Dally & Boyd, SPAA'03");

  const Torus torus(k);
  Rng rng(20030607);
  const auto eval_set = sample_traffic_set(rng, torus.num_nodes(), eval_samples, "sinkhorn");

  auto algorithms = bench::table1_algorithms(torus);
  if (!cli.has("skip-design")) {
    Stopwatch sw;
    std::cout << "solving 2TURN design LP (worst-case, lexicographic)...\n";
    auto two_turn = design_two_turn(torus, opts);
    std::cout << "  " << bench::status_line(two_turn.status, two_turn.note) << " in "
              << sw.seconds() << " s\n";
    {
      auto fields = obs::Json::object();
      fields.set("series", "design_solve")
          .set("k", k)
          .set("algorithm", "2TURN")
          .set("status", lp::to_string(two_turn.status))
          .set("wall_s", sw.seconds())
          .set("certificate", bench::certificate_json(two_turn.certificate));
      jout.point(std::move(fields));
    }
    if (two_turn.status == lp::Status::Optimal) algorithms.push_back(two_turn.routing);

    std::vector<std::vector<int>> perms;
    for (int i = 0; i < design_samples; ++i) perms.push_back(rng.permutation(torus.num_nodes()));
    sw.reset();
    std::cout << "solving 2TURNA design LP (average-case, |X|=" << design_samples << ")...\n";
    auto two_turn_a = design_two_turn_avg(torus, perms, opts);
    std::cout << "  " << bench::status_line(two_turn_a.status, two_turn_a.note) << " in "
              << sw.seconds() << " s\n";
    {
      auto fields = obs::Json::object();
      fields.set("series", "design_solve")
          .set("k", k)
          .set("algorithm", "2TURNA")
          .set("status", lp::to_string(two_turn_a.status))
          .set("wall_s", sw.seconds())
          .set("certificate", bench::certificate_json(two_turn_a.certificate));
      jout.point(std::move(fields));
    }
    if (two_turn_a.status == lp::Status::Optimal) algorithms.push_back(two_turn_a.routing);
  }

  TextTable table({"algorithm", "H_avg/minimal", "Theta_wc/cap", "Theta_avg/cap (approx)",
                   "Theta_avg/cap (true mean)"});
  for (const auto& r : algorithms) {
    r.validate();
    const auto avg = average_case(r, eval_set);
    const double ideal = torus.ideal_uniform_load();
    const double loc = r.normalized_locality();
    const double wc = worst_case_capacity_fraction(r);
    table.add_row_mixed({r.name()},
                        {loc, wc, ideal * avg.approx_throughput, ideal * avg.true_throughput});
    auto fields = obs::Json::object();
    fields.set("series", "algorithm")
        .set("k", k)
        .set("algorithm", r.name())
        .set("locality", loc)
        .set("wc_capacity_fraction", wc)
        .set("avg_capacity_fraction_approx", ideal * avg.approx_throughput)
        .set("avg_capacity_fraction_true", ideal * avg.true_throughput);
    jout.point(std::move(fields));
  }
  table.print(std::cout);
  std::cout << "\npaper reference points (8-ary 2-cube): VAL locality 2.0 & wc 0.50;"
               "\nIVAL locality ~1.61 & wc 0.50; 2TURN locality ~1.48 & wc 0.50;"
               "\nmax average-case throughput ~0.628 of capacity (Fig. 6).\n";
  return rc.finish();
}
