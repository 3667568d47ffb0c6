// Microbenchmarks (google-benchmark) of the library's computational
// kernels: Hungarian matching, channel-load evaluation, sparse LU
// factorization and solves, the revised simplex on a capacity LP and its
// per-pivot kernels on a real Figure 1 basis, the cold-start crash, the flit
// simulator cycle loop, and the tcr::obs / tcr::trace instrumentation primitives (the
// LP kernels double as the overhead check: BM_CapacityLP runs with
// fine-grained timing off, BM_CapacityLPTimed with it on, and
// BM_CapacityLPTraced with the span tracer collecting).
//
// This binary measures wall-clock, not paper quantities, so it is the one
// bench outside the tcr-repro presets and the report::kSchemaVersion record
// schema — google-benchmark owns its output (--benchmark_format=json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "tcr/core/arc_flow.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/lin/sparse_lu.hpp"
#include "tcr/lp/crossover.hpp"
#include "tcr/lp/pivot_kernels.hpp"
#include "tcr/lp/standard_form.hpp"
#include "tcr/matching/hungarian.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/perf/perf.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/sim/sharding.hpp"
#include "tcr/telemetry/telemetry.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/util/rng.hpp"

namespace {

using namespace tcr;

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  DenseMatrix w(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) w(i, j) = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_assignment_max(w).value);
  }
}
BENCHMARK(BM_Hungarian)->Arg(16)->Arg(64)->Arg(144);

void BM_WorstCaseExact(benchmark::State& state) {
  const Torus t(static_cast<int>(state.range(0)));
  const TorusRouting dor = make_dor(t);
  dor.load_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(worst_case(dor).gamma);
  }
}
BENCHMARK(BM_WorstCaseExact)->Arg(4)->Arg(8);

void BM_ChannelLoadsDense(benchmark::State& state) {
  const Torus t(static_cast<int>(state.range(0)));
  const TorusRouting val = make_valiant(t);
  val.load_table();
  Rng rng(2);
  const auto lambda = sinkhorn_sample(rng, t.num_nodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_channel_load(val, lambda));
  }
}
BENCHMARK(BM_ChannelLoadsDense)->Arg(4)->Arg(8);

// Diagonally dominant m x m matrix with four random off-diagonals per
// column, factored as the identity basis.
SparseMatrix lu_bench_matrix(int m) {
  Rng rng(3);
  std::vector<Triplet> trips;
  for (int j = 0; j < m; ++j) {
    trips.push_back({j, j, 4.0});
    for (int r = 0; r < 4; ++r)
      trips.push_back({static_cast<int>(rng.below(m)), j, rng.uniform(-1, 1)});
  }
  return SparseMatrix(m, m, trips);
}

std::vector<int> identity_basis(int m) {
  std::vector<int> basis(m);
  for (int j = 0; j < m; ++j) basis[j] = j;
  return basis;
}

void BM_SparseLuFactor(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const SparseMatrix a = lu_bench_matrix(m);
  const std::vector<int> basis = identity_basis(m);
  for (auto _ : state) {
    SparseLU lu;
    benchmark::DoNotOptimize(lu.factor(a, basis));
  }
}
BENCHMARK(BM_SparseLuFactor)->Arg(256)->Arg(1024)->Arg(4096);

// An LP-shaped m x m basis: slack columns, two-entry +-1 network columns
// (a spanning tree over the network rows) and `dense` coupling rows (four by
// default) with small integer coefficients, about half a column's worth of
// entries each. That is the shape of the design LPs' bases, whose coupling
// rows keep hundreds of live entries through the elimination;
// lu_bench_matrix has no dense row.
SparseMatrix lu_dense_rows_matrix(int m, int dense = 4) {
  const int n = m - dense;  // network rows
  Rng rng(5);
  std::vector<Triplet> trips;
  auto couple = [&](int col) {
    for (int d = 0; d < dense; ++d)
      if (rng.uniform() < 0.5) trips.push_back({n + d, col, 1.0 + static_cast<double>(rng.below(3))});
  };
  for (int i = 0; i < n; ++i) {
    trips.push_back({i, i, 1.0});
    if (i == 0 || rng.uniform() < 0.3) continue;  // slack
    trips.push_back({static_cast<int>(rng.below(i)), i, -1.0});
    couple(i);
  }
  // One cycle-closing arc per coupling row.
  for (int d = 0; d < dense; ++d) {
    const int u = static_cast<int>(rng.below(n));
    trips.push_back({u, n + d, 1.0});
    trips.push_back({(u + 1 + static_cast<int>(rng.below(n - 1))) % n, n + d, -1.0});
    couple(n + d);
  }
  return SparseMatrix(m, m, trips);
}

void BM_SparseLuFactorDenseRows(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const SparseMatrix a = lu_dense_rows_matrix(m);
  const std::vector<int> basis = identity_basis(m);
  if (!SparseLU().factor(a, basis)) {
    state.SkipWithError("singular benchmark basis");
    return;
  }
  for (auto _ : state) {
    SparseLU lu;
    benchmark::DoNotOptimize(lu.factor(a, basis));
  }
}
BENCHMARK(BM_SparseLuFactorDenseRows)->Arg(1024)->Arg(4096);

// The same shape with 150 coupling rows: elimination leaves a block of
// 217 (m = 400) or 279 (m = 1024) rows, more than half full, which factor()
// finishes densely. The `dense_tails` counter (switches per factorization)
// shows it; it is left out when zero, whose repetition aggregates would
// print a NaN coefficient of variation.
void BM_SparseLuFactorDenseTail(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const SparseMatrix a = lu_dense_rows_matrix(m, 150);
  const std::vector<int> basis = identity_basis(m);
  obs::Counter& tails = obs::Registry::instance().counter("lin.lu.dense_tails");
  const std::int64_t tails0 = tails.value();
  if (!SparseLU().factor(a, basis)) {
    state.SkipWithError("singular benchmark basis");
    return;
  }
  const std::int64_t switched = tails.value() - tails0;
  if (switched > 0) state.counters["dense_tails"] = static_cast<double>(switched);
  for (auto _ : state) {
    SparseLU lu;
    benchmark::DoNotOptimize(lu.factor(a, basis));
  }
}
BENCHMARK(BM_SparseLuFactorDenseTail)->Arg(400)->Arg(1024);

// One refactorization cycle of the simplex: factor the LP-shaped basis of
// lu_dense_rows_matrix(m), then bring in 50 network columns (a +1/-1 arc
// and coupling-row entries) by Forrest–Tomlin updates, each after the
// entering column's FTRAN (at the position of its largest entry) and
// followed by one solve with B and one with B'.
void BM_SparseLuUpdate(benchmark::State& state) {
  constexpr int kUpdates = 50;
  constexpr int kDense = 4;  // lu_dense_rows_matrix's coupling rows
  const int m = static_cast<int>(state.range(0));
  const int n = m - kDense;
  const SparseMatrix square = lu_dense_rows_matrix(m);
  std::vector<Triplet> trips;
  for (int j = 0; j < m; ++j)
    for (std::size_t k = square.col_begin(j); k < square.col_end(j); ++k)
      trips.push_back({square.row_index(k), j, square.value(k)});
  Rng rng(6);
  for (int j = m; j < m + kUpdates; ++j) {
    const int u = static_cast<int>(rng.below(n));
    trips.push_back({u, j, 1.0});
    trips.push_back({(u + 1 + static_cast<int>(rng.below(n - 1))) % n, j, -1.0});
    for (int d = 0; d < kDense; ++d)
      if (rng.uniform() < 0.5) trips.push_back({n + d, j, 1.0 + static_cast<double>(rng.below(3))});
  }
  const SparseMatrix a(m, m + kUpdates, trips);
  const std::vector<int> basis = identity_basis(m);
  std::vector<double> b(m), col, x, spike, work;
  for (double& v : b) v = rng.uniform(-1, 1);
  SparseLU lu;
  if (!lu.factor(a, basis)) {
    state.SkipWithError("singular benchmark basis");
    return;
  }
  for (auto _ : state) {
    lu.factor(a, basis);
    for (int q = m; q < m + kUpdates; ++q) {
      col.assign(m, 0.0);
      a.add_column_to(q, 1.0, col);
      lu.solve(col, x, work, &spike);
      int p = 0;
      for (int i = 1; i < m; ++i)
        if (std::abs(x[i]) > std::abs(x[p])) p = i;
      if (!lu.update(p, spike)) {
        state.SkipWithError("singular update");
        return;
      }
      lu.solve(b, x, work);
      lu.solve_transpose(b, x, work);
    }
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseLuUpdate)->Arg(1024)->Arg(4096);

// The simplex's FTRAN/BTRAN kernels: one solve with B (or B') per iteration,
// with caller-kept result and scratch vectors as the solver keeps them.
void BM_SparseLuSolve(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  SparseLU lu;
  lu.factor(lu_bench_matrix(m), identity_basis(m));
  Rng rng(4);
  std::vector<double> b(m), x, work;
  for (double& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    lu.solve(b, x, work);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseLuSolve)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SparseLuSolveTranspose(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  SparseLU lu;
  lu.factor(lu_bench_matrix(m), identity_basis(m));
  Rng rng(4);
  std::vector<double> c(m), y, work;
  for (double& v : c) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    lu.solve_transpose(c, y, work);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseLuSolveTranspose)->Arg(256)->Arg(1024)->Arg(4096);

void BM_CapacityLP(benchmark::State& state) {
  const Torus t(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::Uniform;
    SymmetricArcDesign design(t, cfg);
    benchmark::DoNotOptimize(design.solve().objective);
  }
}
BENCHMARK(BM_CapacityLP)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// Same solve as BM_CapacityLP but with the registry's fine-grained timing
// enabled (what a --json sink turns on). Comparing the two quantifies the
// cost of the per-iteration ScopedTimer spans; BM_CapacityLP vs a build
// without tcr::obs quantifies the always-on counters, which are plain
// relaxed atomic adds.
void BM_CapacityLPTimed(benchmark::State& state) {
  const Torus t(static_cast<int>(state.range(0)));
  obs::Registry::instance().set_timing_enabled(true);
  for (auto _ : state) {
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::Uniform;
    SymmetricArcDesign design(t, cfg);
    benchmark::DoNotOptimize(design.solve().objective);
  }
  obs::Registry::instance().set_timing_enabled(false);
}
BENCHMARK(BM_CapacityLPTimed)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ObsCounterAdd(benchmark::State& state) {
  auto& c = obs::Registry::instance().counter("bench.obs.counter");
  for (auto _ : state) c.add(1);
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  auto& h = obs::Registry::instance().histogram("bench.obs.hist", 1e-9, 2.0);
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 1e3 ? v * 1.0001 : 1e-6;
  }
}
BENCHMARK(BM_ObsHistogramRecord);

// The simulator-ejection histogram cost: record() with the packet-latency
// geometry (least 1.0, growth 1.2 — 95 narrow buckets, so the old
// per-record std::log was the dominant term). The walk covers the whole
// bucket range to defeat branch-predictor lock-in on one boundary. The
// boundary-table record() should beat the historical log-based one; the
// pr10 BENCH_history entry pins the level.
void BM_HistogramRecord(benchmark::State& state) {
  auto& h = obs::Registry::instance().histogram("bench.obs.latency_hist", 1.0, 1.2);
  double v = 1.0;
  for (auto _ : state) {
    h.record(v);
    v = v < 3e7 ? v * 1.37 : 1.0;  // ~every bucket of the 1.2-growth range
  }
}
BENCHMARK(BM_HistogramRecord);

// Disabled-heartbeat cost: what every telemetry sampling site (the simplex
// safepoint, sweep point boundaries, the sim cancel cadence) pays when no
// --heartbeat flag is given — one relaxed atomic load and a
// predicted-not-taken branch, same budget as BM_TraceSpanDisabled. CI's
// overhead guard pins the ratio to BM_ObsScopedTimerDisabled.
void BM_TelemetryPollDisabled(benchmark::State& state) {
  telemetry::stop();
  for (auto _ : state) {
    telemetry::poll();
    benchmark::DoNotOptimize(&state);
  }
}
BENCHMARK(BM_TelemetryPollDisabled);

void BM_ObsScopedTimerDisabled(benchmark::State& state) {
  auto& tm = obs::Registry::instance().timer("bench.obs.timer");
  obs::Registry::instance().set_timing_enabled(false);
  for (auto _ : state) {
    obs::ScopedTimer span(tm);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsScopedTimerDisabled);

void BM_ObsScopedTimerEnabled(benchmark::State& state) {
  auto& tm = obs::Registry::instance().timer("bench.obs.timer");
  for (auto _ : state) {
    obs::ScopedTimer span(tm, /*enabled=*/true);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsScopedTimerEnabled);

// Disabled-tracing span cost: what every instrumented call site pays when
// no --trace flag is given. Should stay within noise of
// BM_ObsScopedTimerDisabled — both are a relaxed atomic load and a
// predicted-not-taken branch; CI's overhead guard asserts the ratio.
void BM_TraceSpanDisabled(benchmark::State& state) {
  trace::Tracer::instance().stop();
  for (auto _ : state) {
    trace::Span span("bench.trace.span");
    span.attr("i", 1);
    span.attr("x", 0.5);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

// Enabled-tracing span cost: two clock reads, attr copies, and one
// mutex-protected ring-buffer push per span.
void BM_TraceSpanEnabled(benchmark::State& state) {
  trace::TracerConfig cfg;
  cfg.capacity = 1 << 16;
  trace::Tracer::instance().start(cfg);
  for (auto _ : state) {
    trace::Span span("bench.trace.span");
    span.attr("i", 1);
    span.attr("x", 0.5);
    benchmark::DoNotOptimize(&span);
  }
  trace::Tracer::instance().stop();
  trace::Tracer::instance().clear();
}
BENCHMARK(BM_TraceSpanEnabled);

// Enabled sampler read cost: one getrusage + /proc read per sample() —
// bench-phase granularity, deliberately not cheap enough for hot loops.
void BM_PerfPhaseSamplerEnabled(benchmark::State& state) {
  perf::PerfConfig cfg;
  perf::start(cfg);
  perf::PhaseSampler sampler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample().cpu_ns);
  }
  perf::stop();
}
BENCHMARK(BM_PerfPhaseSamplerEnabled);

// End-to-end solver cost with tracing collecting (spans + sampled
// convergence counters). Compare against BM_CapacityLP (tracing off) and
// BM_CapacityLPTimed (obs timing on) for the full overhead picture.
void BM_CapacityLPTraced(benchmark::State& state) {
  const Torus t(static_cast<int>(state.range(0)));
  trace::TracerConfig cfg;
  cfg.capacity = 1 << 16;
  trace::Tracer::instance().start(cfg);
  for (auto _ : state) {
    SymmetricDesignConfig dcfg;
    dcfg.objective = DesignObjective::Uniform;
    SymmetricArcDesign design(t, dcfg);
    benchmark::DoNotOptimize(design.solve().objective);
  }
  trace::Tracer::instance().stop();
  trace::Tracer::instance().clear();
}
BENCHMARK(BM_CapacityLPTraced)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// Dual-simplex rhs-edit restart: one warm sweep step — move the locality
// bound, re-solve from the previous optimal basis. The warm basis stays
// dual-feasible across a pure rhs edit, so the solve runs the lp.dual
// reoptimization (a handful of pivots) instead of a cold phase-1/phase-2
// pass; compare against BM_CapacityLP for the cold-solve cost.
void BM_DualRestart(benchmark::State& state) {
  const Torus t(static_cast<int>(state.range(0)));
  const double hmin = t.mean_min_distance();
  SymmetricDesignConfig cfg;
  cfg.objective = DesignObjective::WorstCase;
  cfg.locality_equals = 1.3 * hmin;
  cfg.locality_le = true;
  SymmetricArcDesign design(t, cfg);
  DesignResult res = design.solve();
  double next = 1.5;
  for (auto _ : state) {
    design.set_locality_bound(next * hmin);
    res = design.solve({}, &res.basis);
    next = next == 1.5 ? 1.3 : 1.5;  // every solve sees a real rhs change
    benchmark::DoNotOptimize(res.objective);
  }
}
BENCHMARK(BM_DualRestart)->Arg(4)->Unit(benchmark::kMillisecond);

// ---- the simplex's per-pivot kernels on a real basis ----------------------
//
// The optimal basis of the k=6 Figure 1 LP (10) at the sweep's first
// locality point, regenerated once per process (one cold solve). From it:
//   * primal states: the basic values at that point and w = B^-1 a_q for 16
//     nonbasic priceable columns q spread over the columns;
//   * dual states: the same basis after the sweep's next rhs edit (the next
//     locality point), where the warm restart's dual phase starts, with one
//     pivot row rho = B^-T e_r per violated basic;
//   * 32 pivot rows rho = B^-T e_r for rows r spread over the rows.
struct Fig1Basis {
  lp::detail::StandardForm sf;
  SparseMatrix a;
  std::vector<lp::detail::VarStatus> stat;
  std::vector<int> basic;
  std::vector<char> priceable;
  std::vector<double> blo, bup, d;
  std::vector<double> xb;                  // at the solved point
  std::vector<std::vector<double>> w;      // primal states
  std::vector<int> dir;
  std::vector<double> own_range;
  std::vector<std::vector<double>> rho;    // spread pivot rows
  std::vector<std::vector<double>> dual_rho;  // dual states
  std::vector<double> dual_sign, dual_remain;

  static const Fig1Basis& get() {
    static const Fig1Basis b;
    return b;
  }

 private:
  Fig1Basis() {
    const Torus t(6);
    const double hmin = t.mean_min_distance();
    const std::vector<double> grid = locality_grid(1.0, 2.0, 9);
    SymmetricDesignConfig cfg;
    cfg.objective = DesignObjective::WorstCase;
    cfg.locality_equals = grid[0] * hmin;
    cfg.locality_le = true;
    SymmetricArcDesign design(t, cfg);
    const DesignResult res = design.solve();
    sf = lp::detail::build_standard_form(design.model());
    design.set_locality_bound(grid[1] * hmin);
    const std::vector<double> b_next = lp::detail::build_standard_form(design.model()).b;
    a = SparseMatrix(sf.m, sf.ntotal, sf.triplets);
    basic = res.basis.basic;
    for (const std::uint8_t s : res.basis.stat) stat.push_back(static_cast<lp::detail::VarStatus>(s));
    for (int j = 0; j < sf.ntotal; ++j)
      priceable.push_back(stat[j] != lp::detail::kBasic && sf.lo[j] != sf.up[j]);
    for (const int j : basic) {
      blo.push_back(sf.lo[j]);
      bup.push_back(sf.up[j]);
    }
    SparseLU lu;
    if (!lu.factor(a, basic)) std::abort();
    const auto nonbasic_value = [&](int j) {
      return stat[j] == lp::detail::kAtLower   ? sf.lo[j]
             : stat[j] == lp::detail::kAtUpper ? sf.up[j]
                                               : 0.0;
    };
    const auto basic_values = [&](std::vector<double> rhs) {
      for (int j = 0; j < sf.ntotal; ++j)
        if (stat[j] != lp::detail::kBasic) a.add_column_to(j, -nonbasic_value(j), rhs);
      std::vector<double> x;
      lu.solve(rhs, x);
      return x;
    };
    xb = basic_values(sf.b);
    std::vector<double> cb(sf.m), y;
    for (int i = 0; i < sf.m; ++i) cb[i] = sf.cost[basic[i]];
    lu.solve_transpose(cb, y);
    d.resize(sf.ntotal);
    for (int j = 0; j < sf.ntotal; ++j) d[j] = sf.cost[j] - a.column_dot(j, y);

    for (int q = 0, taken = 0; q < sf.ntotal && taken < 16; q += 1 + sf.ntotal / 64) {
      if (!priceable[q]) continue;
      std::vector<double> col(sf.m, 0.0), x;
      a.add_column_to(q, 1.0, col);
      lu.solve(col, x);
      w.push_back(std::move(x));
      dir.push_back(stat[q] == lp::detail::kAtUpper ? -1 : 1);
      own_range.push_back(sf.up[q] - sf.lo[q]);
      ++taken;
    }
    std::vector<double> er(sf.m, 0.0), r;
    for (int i = 0; i < sf.m; i += 1 + sf.m / 32) {
      er[i] = 1.0;
      lu.solve_transpose(er, r);
      er[i] = 0.0;
      rho.push_back(r);
    }
    const std::vector<double> xb_next = basic_values(b_next);
    for (int i = 0; i < sf.m; ++i) {
      const bool below = xb_next[i] < blo[i] - 1e-7;
      if (!below && !(xb_next[i] > bup[i] + 1e-7)) continue;
      er[i] = 1.0;
      lu.solve_transpose(er, r);
      er[i] = 0.0;
      dual_rho.push_back(r);
      dual_sign.push_back(below ? -1.0 : 1.0);
      dual_remain.push_back(below ? blo[i] - xb_next[i] : xb_next[i] - bup[i]);
    }
  }
};

// The pivot row alpha_j = a_j . rho over the priceable columns (nonbasic,
// not fixed), as the simplex forms it for its DEVEX and price updates
// (primal) and its candidate pass (dual), over the 32 captured rho in turn.
void BM_PivotRowProduct(benchmark::State& state) {
  const Fig1Basis& fb = Fig1Basis::get();
  RowProduct rows(fb.a);
  rows.partition([&](int j) { return fb.priceable[j] != 0; });
  std::vector<std::pair<int, double>> row;
  std::size_t next = 0;
  for (auto _ : state) {
    row.clear();
    rows.for_each(fb.rho[next], [&](int j, double alpha) {
      if (alpha != 0.0) row.emplace_back(j, alpha);
    });
    benchmark::DoNotOptimize(row.data());
    next = next + 1 == fb.rho.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_PivotRowProduct);

// The primal Harris ratio test over the 16 captured entering columns in
// turn, Bland mode off.
void BM_PrimalRatioTest(benchmark::State& state) {
  const Fig1Basis& fb = Fig1Basis::get();
  std::vector<int> cand;
  std::size_t next = 0;
  for (auto _ : state) {
    const lp::detail::HarrisStep step =
        lp::detail::harris_ratio_test(fb.w[next], fb.dir[next], fb.xb, fb.blo, fb.bup, fb.basic,
                                      fb.own_range[next], 1e-7, false, cand);
    benchmark::DoNotOptimize(step);
    next = next + 1 == fb.w.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_PrimalRatioTest);

// The dual ratio test after the pivot row: the bound-flipping candidates of
// one violated row of the warm restart's first basis (the simplex's
// candidate pass) and the walk that picks the entering column.
void BM_DualBfrt(benchmark::State& state) {
  const Fig1Basis& fb = Fig1Basis::get();
  if (fb.dual_rho.empty()) {
    state.SkipWithError("the rhs edit left the basis primal-feasible");
    return;
  }
  RowProduct rows(fb.a);
  rows.partition([&](int j) { return fb.priceable[j] != 0; });
  std::vector<std::vector<std::pair<int, double>>> pivot_rows(fb.dual_rho.size());
  for (std::size_t s = 0; s < fb.dual_rho.size(); ++s) {
    rows.for_each(fb.dual_rho[s], [&](int j, double alpha) {
      if (alpha != 0.0) pivot_rows[s].emplace_back(j, alpha);
    });
  }
  std::vector<lp::detail::BfrtCand> cands;
  std::size_t next = 0;
  for (auto _ : state) {
    const double s = fb.dual_sign[next];
    cands.clear();
    for (const auto& [j, alpha] : pivot_rows[next]) {
      const double abar = s * alpha;
      if (std::abs(abar) <= 1e-9) continue;
      if (fb.stat[j] == lp::detail::kAtLower   ? abar <= 0.0
          : fb.stat[j] == lp::detail::kAtUpper ? abar >= 0.0
                                               : false) {
        continue;
      }
      cands.push_back({j, fb.d[j] / abar, abar, fb.sf.up[j] - fb.sf.lo[j]});
    }
    benchmark::DoNotOptimize(lp::detail::bfrt_select(cands, fb.dual_remain[next], 1e-7));
    next = next + 1 == pivot_rows.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_DualBfrt);

// The cold-start crash of the k=8 Figure 1 (arg 0) and Figure 6 (arg 1)
// sweeps at their first point, L = 1: the DOR start point and the crossover
// to a vertex (flow_crash_hints() without its cache). The design is built
// in set-up.
void BM_PointCrash(benchmark::State& state) {
  const Torus t(8);
  SymmetricDesignConfig cfg;
  cfg.locality_equals = t.mean_min_distance();
  cfg.locality_le = true;
  if (state.range(0) == 1) {
    cfg.objective = DesignObjective::AverageCase;
    Rng rng(606);
    for (int i = 0; i < 4; ++i) cfg.samples.push_back(rng.permutation(t.num_nodes()));
  }
  const SymmetricArcDesign design(t, cfg);
  for (auto _ : state) {
    const lp::Basis basis = lp::crash_from_point(design.model(), design.start_point());
    benchmark::DoNotOptimize(basis.basic.data());
  }
}
BENCHMARK(BM_PointCrash)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SimulatorCycles(benchmark::State& state) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = static_cast<int>(state.range(0));
  cfg.drain_cycles = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(dor, 0.3, {}, cfg).accepted_rate);
  }
}
BENCHMARK(BM_SimulatorCycles)->Arg(1000)->Unit(benchmark::kMillisecond);

// Raw struct-of-arrays cycle kernel: phase 1 + phase 2 on a single shard
// with no coordinator bookkeeping — the inner loop the saturation bench
// spends its wall-clock in. DOR uniform traffic. The default row, k=8 at
// 0.40 flits/node/cycle, keeps the network loaded but unsaturated, so
// per-iteration work is steady; the k=16 row at 0.15 (sim-k16's light
// load) is mostly idle nodes, so it prices the per-node cost of a cycle in
// which little happens.
void BM_SimCycleSoA(benchmark::State& state, int k, double rate) {
  const Torus t(k);
  const TorusRouting dor = make_dor(t);
  TrafficGen gen(dor, rate, 42);
  gen.prepare();
  sim_detail::Engine eng;
  eng.init(t, gen, nullptr, 4, 4, 1, 42, std::max(1, gen.max_path_len()));
  obs::Histogram hist(1.0, 1.2);
  eng.run_latency = &hist;
  eng.injecting = true;
  for (auto _ : state) {
    eng.phase1(0);
    eng.phase2(0);
    ++eng.cycle;
  }
  benchmark::DoNotOptimize(eng.live_flits());
}
void BM_SimCycleSoA(benchmark::State& state) { BM_SimCycleSoA(state, 8, 0.40); }
BENCHMARK(BM_SimCycleSoA);
BENCHMARK_CAPTURE(BM_SimCycleSoA, k16_rate0.15, 16, 0.15);

// One sharded epoch step: phase 1 over every shard, then phase 2 over every
// shard, in shard order — exactly the work between two barrier releases of
// the parallel loop, minus the barriers themselves. Against BM_SimCycleSoA
// this isolates the sharding overhead (mailbox copies on cross-shard hops,
// per-shard loop bookkeeping) from thread-synchronization cost.
void BM_SimShardedEpoch(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const Torus t(8);
  const TorusRouting dor = make_dor(t);
  TrafficGen gen(dor, 0.40, 42);
  gen.prepare();
  sim_detail::Engine eng;
  eng.init(t, gen, nullptr, 4, 4, shards, 42, std::max(1, gen.max_path_len()));
  obs::Histogram hist(1.0, 1.2);
  eng.run_latency = &hist;
  eng.injecting = true;
  for (auto _ : state) {
    for (int s = 0; s < shards; ++s) eng.phase1(s);
    for (int s = 0; s < shards; ++s) eng.phase2(s);
    ++eng.cycle;
  }
  benchmark::DoNotOptimize(eng.live_flits());
}
BENCHMARK(BM_SimShardedEpoch)->Arg(4);

}  // namespace
