// Ablation of the design-LP machinery (DESIGN.md's "validity of the
// symmetry reductions" and solver choices): for the worst-case design
// problem at several radices, compare
//   * dihedral variable folding ON vs OFF,
//   * phase-2 cost perturbation ON vs OFF,
// reporting rows/cols, simplex iterations, wall time — and, crucially, that
// every configuration reaches the same optimal objective.
//
// Flags: --kmin (default 3), --kmax (default 5; unfolded LPs grow fast),
// --json <path> (one JSON record per configuration with the solver's
// per-solve obs snapshot — iterations, refactorizations, phase timings),
// --perf (attach a hardware-counter/rusage perf block to every record; see
// bench::JsonOutput).
#include "bench_common.hpp"

#include "tcr/core/arc_flow.hpp"
#include "tcr/util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace tcr;
  const Cli cli(argc, argv);
  const int kmin = cli.get_int("kmin", 3);
  const int kmax = cli.get_int("kmax", 5);
  bench::JsonOutput jout(cli, "ablation_solver",
                         obs::Json::object().set("kmin", kmin).set("kmax", kmax));
  bench::TraceOutput trace(cli);
  bench::HeartbeatOutput heartbeat(cli, "ablation_solver", nullptr);

  bench::banner("Ablation: symmetry folding and anti-degeneracy perturbation",
                "worst-case design LP (8); all configs must agree on the optimum");

  TextTable table({"k", "fold", "perturb", "rows", "cols", "iters", "time(s)", "objective"});
  for (int k = kmin; k <= kmax; ++k) {
    const Torus torus(k);
    for (bool fold : {true, false}) {
      for (bool perturb : {true, false}) {
        SymmetricDesignConfig cfg;
        cfg.objective = DesignObjective::WorstCase;
        cfg.fold_dihedral = fold;
        SymmetricArcDesign design(torus, cfg);
        lp::SimplexOptions opts;
        opts.perturb = perturb;
        Stopwatch sw;
        const auto res = design.solve(opts);
        table.add_row({std::to_string(k), fold ? "yes" : "no", perturb ? "yes" : "no",
                       std::to_string(design.model().num_rows()),
                       std::to_string(design.model().num_cols()),
                       std::to_string(res.iterations), TextTable::num(sw.seconds(), 2),
                       res.status == lp::Status::Optimal
                           ? TextTable::num(res.objective, 6)
                           : bench::status_line(res.status, res.note)});
        auto fields = obs::Json::object();
        fields.set("k", k)
            .set("fold_dihedral", fold)
            .set("perturb", perturb)
            .set("rows", design.model().num_rows())
            .set("cols", design.model().num_cols())
            .set("iterations", res.iterations)
            .set("wall_s", sw.seconds())
            .set("status", lp::to_string(res.status))
            .set("objective", res.objective)
            .set("certificate", bench::certificate_json(res.certificate));
        jout.point(std::move(fields));
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected: identical objectives down each k block; folding cuts rows/cols\n"
               "~4-8x and time by an order of magnitude — the practical enabler for the\n"
               "k = 8 figures on this machine (paper used CPLEX on the unfolded O(CN)\n"
               "translation-reduced form).\n";
  return 0;
}
