// tcr-bench — the repository's benchmark driver. One process measures one
// workload in one mode:
//
//   tcr-bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//
// --trace 0 (the default) measures the end-to-end metrics with every
// instrumentation layer off. Set-up repeats for kSetupSeconds and reports
// the median; the body, one paper-scale sweep or simulator series of 6-20 s,
// then runs once through the library's one-call entry points. T is accepted
// for the benchmark's command interface; no body is short enough to repeat
// within it.
//
// --trace 1 gives the per-layer table. It runs set-up and body once with
// the tracer, the obs timers and allocation sampling on. The traced body
// calls each layer's public functions inside driver-side trace::Spans, all
// siblings under one `bench.<workload>` root. benchmark/run.py checks that
// its output records equal the untraced run's bit for bit.
//
// Every run checks its outputs: golden values from bench/golden.json, the
// values recorded in benchmark/reference.json, and invariants that hold at
// every seed (see benchmark/README.md). stdout carries
// `<workload> output <record>` lines, `<workload> <metric> <value> <unit>`
// lines and, as the last line, one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage or
// set-up error (no result line).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tcr/core/arc_flow.hpp"
#include "tcr/core/tradeoff.hpp"
#include "tcr/matching/hungarian.hpp"
#include "tcr/metrics/average_case.hpp"
#include "tcr/metrics/loads.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/obs/json.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/perf/perf.hpp"
#include "tcr/perf/provenance.hpp"
#include "tcr/report/golden.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/traffic/sampler.hpp"
#include "tcr/util/cli.hpp"
#include "tcr/util/rng.hpp"
#include "tcr/util/stopwatch.hpp"

namespace {

using namespace tcr;

// Set-up takes 0.3-40 ms, while the host's speed swings last about a
// second, so set-up repeats over a window this long (and at least
// kMinSetupReps times) and the median repetition is reported.
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMinSetupReps = 11;

// --seed S offsets the seeds of the figure benches: S = 0 reproduces
// bench_fig6_avg_tradeoff's samples and the simulator's default stream, the
// inputs the seed-0 values of benchmark/reference.json were recorded from.
constexpr std::uint64_t kFig6Seed = 606;
constexpr std::uint64_t kSimSeed = 42;

enum class Kind { WorstCase, AverageCase, Sim };

struct Workload {
  const char* name;
  Kind kind;
  int k;
  int points;          // LP: locality grid points over [1, 2]
  bool warm;           // LP: SweepConfig::warm_start
  int design_samples;  // AverageCase: permutations in LP (15)
  int eval_samples;    // AverageCase: Sinkhorn samples for eq. 9
  const char* golden;  // bench id whose bench/golden.json values apply, if any
};

// Why each workload exists is recorded in benchmark/README.md.
constexpr Workload kWorkloads[] = {
    {"fig1-k8-warm", Kind::WorstCase, 8, 9, true, 0, 0, "fig1_wc_tradeoff"},
    {"fig6-k8-warm", Kind::AverageCase, 8, 3, true, 4, 100, nullptr},
    {"fig1-k6-cold", Kind::WorstCase, 6, 9, false, 0, 0, nullptr},
    {"sim-k16", Kind::Sim, 16, 0, false, 0, 0, nullptr},
};

struct SimLoad {
  const char* name;
  double rate;  // offered flits per node per cycle
};
constexpr SimLoad kSimLoads[] = {{"light", 0.15}, {"sat", 0.95}};
constexpr int kSimThreads[] = {1, 2, 4};
constexpr int kNumSimLoads = 2;
constexpr int kNumSimThreads = 3;

/// "light.t1" ...: names simulator run (load l, thread-count index ti) in
/// span and metric names.
std::string sim_run_name(int l, int ti) {
  return std::string(kSimLoads[l].name) + ".t" + std::to_string(kSimThreads[ti]);
}

SimConfig sim_config(int threads, std::uint64_t seed) {
  SimConfig cfg;
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 30000;
  cfg.drain_cycles = 0;
  cfg.threads = threads;
  cfg.seed = kSimSeed + seed;
  return cfg;
}

// ---- inputs and outputs ----------------------------------------------------

struct Inputs {
  std::unique_ptr<Torus> torus;  // routings keep a pointer to it
  std::vector<double> grid;      // normalized locality bounds of the curve
  std::vector<std::vector<int>> design_samples;
  std::vector<TrafficMatrix> eval_samples;
  /// The six Table-1 algorithms (LP workloads) or DOR (simulator).
  std::vector<TorusRouting> routings;
};

struct Outputs {
  std::vector<TradeoffPoint> curve;
  /// Capacity fraction of each Inputs::routings entry: worst case (eq. 7)
  /// or approximate average case (eq. 9).
  std::vector<double> algorithm_values;
  std::array<std::array<SimStats, kNumSimThreads>, kNumSimLoads> sims;
};

/// Builds the workload's inputs: torus, routings with their load tables, and
/// traffic samples. Each group runs inside its layer span, which costs one
/// branch when tracing is off.
Inputs setup(const Workload& w, std::uint64_t seed) {
  Inputs in;
  {
    trace::Span span("graph.torus");
    in.torus = std::make_unique<Torus>(w.k);
  }
  {
    trace::Span span("routing.build");
    if (w.kind == Kind::Sim) {
      in.routings.push_back(make_dor(*in.torus));
    } else {
      in.routings = bench::table1_algorithms(*in.torus);
    }
    for (const TorusRouting& r : in.routings) r.load_table();
  }
  if (w.kind == Kind::AverageCase) {
    trace::Span span("traffic.samples");
    // The design permutations are bench_fig6_avg_tradeoff's at every seed:
    // other draws can stall LP (15) in phase 1 for many minutes (see
    // README.md). The seed varies the Sinkhorn evaluation samples; S = 0
    // continues the bench's stream, as the bench does.
    Rng rng(kFig6Seed);
    const int n = in.torus->num_nodes();
    for (int i = 0; i < w.design_samples; ++i) in.design_samples.push_back(rng.permutation(n));
    Rng eval_rng = seed == 0 ? rng : Rng(kFig6Seed + seed);
    in.eval_samples = sample_traffic_set(eval_rng, n, w.eval_samples, "sinkhorn");
  }
  if (w.kind != Kind::Sim) in.grid = locality_grid(1.0, 2.0, w.points);
  return in;
}

/// The untraced body: the library's one-call entry points.
Outputs run_library(const Workload& w, const Inputs& in, std::uint64_t seed) {
  Outputs out;
  const Torus& t = *in.torus;
  SweepConfig sweep;
  sweep.warm_start = w.warm;
  switch (w.kind) {
    case Kind::WorstCase:
      out.curve = worst_case_tradeoff(t, in.grid, {}, nullptr, sweep);
      for (const TorusRouting& r : in.routings) {
        out.algorithm_values.push_back(worst_case_capacity_fraction(r));
      }
      break;
    case Kind::AverageCase:
      out.curve = average_case_tradeoff(t, in.design_samples, in.grid, {}, nullptr, sweep);
      for (const TorusRouting& r : in.routings) {
        out.algorithm_values.push_back(average_capacity_fraction(r, in.eval_samples));
      }
      break;
    case Kind::Sim:
      for (int l = 0; l < kNumSimLoads; ++l) {
        for (int ti = 0; ti < kNumSimThreads; ++ti) {
          out.sims[l][ti] = simulate(in.routings[0], kSimLoads[l].rate, {},
                                     sim_config(kSimThreads[ti], seed));
        }
      }
      break;
  }
  return out;
}

// ---- the traced body: the same work through each layer's public calls ------

/// The single-chain loop of the tradeoff sweep (core/tradeoff.cpp), one
/// layer span per call.
std::vector<TradeoffPoint> traced_sweep(const Workload& w, const Inputs& in) {
  const Torus& t = *in.torus;
  const double hmin = t.mean_min_distance();
  const double ideal = t.ideal_uniform_load();
  SymmetricDesignConfig cfg;
  cfg.objective =
      w.kind == Kind::WorstCase ? DesignObjective::WorstCase : DesignObjective::AverageCase;
  cfg.samples = in.design_samples;
  cfg.locality_equals = in.grid[0] * hmin;
  cfg.locality_le = true;
  std::optional<SymmetricArcDesign> design;
  {
    trace::Span span("core.build");
    design.emplace(t, cfg);
  }
  {
    trace::Span span("lp.crash_hints");
    design->flow_crash_hints();
  }
  const lp::SimplexOptions opts;
  lp::Basis warm;
  std::vector<TradeoffPoint> curve(in.grid.size());
  for (std::size_t i = 0; i < in.grid.size(); ++i) {
    TradeoffPoint& p = curve[i];
    p.locality = in.grid[i];
    if (i > 0) {
      trace::Span span("core.build");
      design->set_locality_bound(in.grid[i] * hmin);
    }
    const lp::Basis* start = w.warm && !warm.empty() ? &warm : nullptr;
    DesignResult res;
    {
      trace::Span span(start != nullptr ? "lp.solve_warm" : "lp.solve_cold");
      res = design->solve(opts, start);
    }
    p.status = res.status;
    p.note = res.note;
    p.certificate = res.certificate;
    p.warm_start = res.warm_start;
    p.iterations = res.iterations;
    if (res.status == lp::Status::Optimal && res.objective > 0.0) {
      p.capacity_fraction = ideal / res.objective;
    }
    if (w.warm) warm = std::move(res.basis);
  }
  fill_degraded_points(curve, guard::StopReason::None);
  return curve;
}

/// worst_case_capacity_fraction() split into its two layers: the pair-load
/// matrix of each representative channel and its Hungarian matching.
double traced_worst_case(const TorusRouting& r) {
  const Torus& t = r.torus();
  double gamma = 0.0;
  for (int dir = 0; dir < kNumDirs; ++dir) {
    DenseMatrix weights;
    {
      trace::Span span("metrics.pair_load");
      weights = pair_load_matrix(r, t.channel(0, static_cast<Dir>(dir)));
    }
    trace::Span span("matching.hungarian");
    gamma = std::max(gamma, solve_assignment_max(weights).value);
  }
  return t.ideal_uniform_load() * (1.0 / gamma);
}

Outputs run_traced(const Workload& w, const Inputs& in, std::uint64_t seed) {
  Outputs out;
  if (w.kind == Kind::Sim) {
    const TorusRouting& r = in.routings[0];
    for (int l = 0; l < kNumSimLoads; ++l) {
      for (int ti = 0; ti < kNumSimThreads; ++ti) {
        const SimConfig cfg = sim_config(kSimThreads[ti], seed);
        std::unique_ptr<TrafficGen> gen;
        std::unique_ptr<Simulator> sim;
        {
          trace::Span span("sim.init");
          gen = std::make_unique<TrafficGen>(r, kSimLoads[l].rate, cfg.seed);
          sim = std::make_unique<Simulator>(r, *gen, cfg);
        }
        // Teardown (source queues, flit slab) counts with the run. The span
        // keeps a view of its name, so the name outlives it.
        const std::string span_name = "sim.run." + sim_run_name(l, ti);
        trace::Span span(span_name);
        out.sims[l][ti] = sim->run();
        sim.reset();
        gen.reset();
      }
    }
    return out;
  }
  out.curve = traced_sweep(w, in);
  for (const TorusRouting& r : in.routings) {
    if (w.kind == Kind::WorstCase) {
      out.algorithm_values.push_back(traced_worst_case(r));
    } else {
      trace::Span span("metrics.average_case");
      out.algorithm_values.push_back(average_capacity_fraction(r, in.eval_samples));
    }
  }
  return out;
}

// ---- output records --------------------------------------------------------
// One JSON object per curve point, algorithm or simulator run. Doubles
// serialize losslessly, so equal dumps mean bit-equal outputs (run.py
// compares the traced and untraced runs' records this way); the records
// also feed the golden comparator (tcr::report), which matches on their
// fields.

obs::Json point_record(const TradeoffPoint& p) {
  auto j = obs::Json::object();
  j.set("series", "optimal_curve")
      .set("locality", p.locality)
      .set("capacity_fraction", p.capacity_fraction)
      .set("status", lp::to_string(p.status))
      .set("certified", p.certificate.checked && p.certificate.pass)
      .set("warm_start", p.warm_start)
      .set("iterations", static_cast<std::int64_t>(p.iterations));
  if (p.provenance != "measured") j.set("provenance", p.provenance);
  return j;
}

obs::Json sim_record(const char* load, int threads, const SimStats& s) {
  auto windows = obs::Json::array();
  for (const SimWindow& win : s.windows) {
    windows.push_back(obs::Json::array()
                          .push_back(static_cast<std::int64_t>(win.cycles))
                          .push_back(static_cast<std::int64_t>(win.injected))
                          .push_back(static_cast<std::int64_t>(win.ejected)));
  }
  auto j = obs::Json::object();
  j.set("series", "sim")
      .set("load", load)
      .set("threads", threads)
      .set("deadlocked", s.deadlocked)
      .set("cancelled", s.cancelled)
      .set("offered_rate", s.offered_rate)
      .set("accepted_rate", s.accepted_rate)
      .set("avg_latency", s.avg_latency)
      .set("p50_latency", s.p50_latency)
      .set("p95_latency", s.p95_latency)
      .set("p99_latency", s.p99_latency)
      .set("max_latency", s.max_latency)
      .set("injected", static_cast<std::int64_t>(s.injected))
      .set("ejected", static_cast<std::int64_t>(s.ejected))
      .set("cycles_run", static_cast<std::int64_t>(s.cycles_run))
      .set("measured_cycles", static_cast<std::int64_t>(s.measured_cycles))
      .set("flit_cycles", static_cast<std::int64_t>(s.flit_cycles))
      .set("windows", std::move(windows));
  return j;
}

std::vector<obs::Json> records(const Workload& w, const Inputs& in, const Outputs& out) {
  std::vector<obs::Json> recs;
  if (w.kind == Kind::Sim) {
    for (int l = 0; l < kNumSimLoads; ++l) {
      for (int ti = 0; ti < kNumSimThreads; ++ti) {
        recs.push_back(sim_record(kSimLoads[l].name, kSimThreads[ti], out.sims[l][ti]));
      }
    }
    return recs;
  }
  for (const TradeoffPoint& p : out.curve) recs.push_back(point_record(p));
  for (std::size_t i = 0; i < in.routings.size(); ++i) {
    auto j = obs::Json::object();
    j.set("series", "algorithm")
        .set("algorithm", in.routings[i].name())
        .set("locality", in.routings[i].normalized_locality())
        .set("capacity_fraction", out.algorithm_values[i]);
    recs.push_back(std::move(j));
  }
  return recs;
}

// ---- output checks ---------------------------------------------------------

class Checks {
 public:
  explicit Checks(std::string workload) : workload_(std::move(workload)) {}

  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::cout << workload_ << " check FAILED: " << what << "\n";
  }

  void expect(const report::Comparison& cmp) {
    expect(cmp.outcome == report::Comparison::Outcome::Pass, cmp.reason);
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::string workload_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct References {
  report::GoldenFile golden;     // bench/golden.json
  report::GoldenFile reference;  // benchmark/reference.json
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

void check_lp(const Inputs& in, const Outputs& out, bool worst_case, Checks& checks) {
  double prev = 0.0;
  for (const TradeoffPoint& p : out.curve) {
    const std::string at = "L=" + fmt(p.locality) + ": ";
    checks.expect(p.solved() && p.certificate.checked && p.certificate.pass,
                  at + "solve is " + lp::to_string(p.status) + " with a passing certificate");
    checks.expect(p.capacity_fraction > 0.0 && p.capacity_fraction <= 1.0,
                  at + "capacity fraction " + fmt(p.capacity_fraction) + " in (0, 1]");
    checks.expect(p.capacity_fraction >= prev - 1e-9, at + "curve is non-decreasing in L");
    prev = p.capacity_fraction;
  }
  if (!worst_case) return;
  // The optimal curve dominates every fixed algorithm at the algorithm's
  // own locality (the curve is non-decreasing, so the first grid point at or
  // beyond it is the tightest test the grid offers).
  for (std::size_t i = 0; i < in.routings.size(); ++i) {
    const double loc = in.routings[i].normalized_locality();
    for (const TradeoffPoint& p : out.curve) {
      if (p.locality < loc - 1e-9) continue;
      checks.expect(p.capacity_fraction >= out.algorithm_values[i] - 1e-6,
                    "curve at L=" + fmt(p.locality) + " dominates " + in.routings[i].name() +
                        " (" + fmt(out.algorithm_values[i]) + ")");
      break;
    }
  }
}

void check_sim(const Inputs& in, const Outputs& out, Checks& checks) {
  const double analytic = 1.0 / uniform_max_load(in.routings[0]);
  for (int l = 0; l < kNumSimLoads; ++l) {
    const auto& runs = out.sims[l];
    const std::string load = kSimLoads[l].name;
    const std::string serial = sim_record(load.c_str(), 1, runs[0]).dump();
    for (int ti = 1; ti < kNumSimThreads; ++ti) {
      checks.expect(sim_record(load.c_str(), 1, runs[ti]).dump() == serial,
                    load + ": SimStats at threads " + std::to_string(kSimThreads[ti]) +
                        " equal threads 1 bit for bit");
    }
    const SimStats& s = runs[0];
    checks.expect(!s.deadlocked && !s.cancelled, load + ": run completes without deadlock");
    if (kSimLoads[l].rate < analytic) {
      checks.expect(std::abs(s.accepted_rate - s.offered_rate) <= 0.02 * s.offered_rate,
                    load + ": accepted " + fmt(s.accepted_rate) + " within 2% of offered " +
                        fmt(s.offered_rate));
    } else {
      checks.expect(s.accepted_rate <= analytic,
                    load + ": accepted " + fmt(s.accepted_rate) + " at most the analytic " +
                        fmt(analytic));
    }
  }
}

void check_outputs(const Workload& w, const Inputs& in, const Outputs& out,
                   const std::vector<obs::Json>& recs, std::uint64_t seed,
                   const References& refs, Checks& checks) {
  report::BenchRun run;
  for (const obs::Json& r : recs) run.records.push_back({r, obs::Json(), obs::Json()});

  if (w.golden != nullptr) {
    run.bench = w.golden;
    const std::vector<report::BenchRun> runs{run};
    for (report::Quantity q : refs.golden.quantities) {
      if (q.id == "table1.val.wc" || q.id == "table1.ival.wc") {
        // Table 1's worst-case column is the worst_case() value Figure 1
        // places the algorithm at.
        q.bench = run.bench;
        q.field = "capacity_fraction";
      } else if (!q.gated() || q.bench != run.bench || !q.applies_to("fig1")) {
        continue;
      }
      checks.expect(report::compare_quantity(q, runs));
    }
  }

  run.bench = w.name;
  const std::vector<report::BenchRun> runs{run};
  for (const report::Quantity& q : refs.reference.quantities) {
    if (!q.gated() || q.bench != w.name) continue;
    if (!q.applies_to("any_seed") && !(seed == 0 && q.applies_to("seed0"))) continue;
    checks.expect(report::compare_quantity(q, runs));
  }

  if (w.kind == Kind::Sim) {
    check_sim(in, out, checks);
  } else {
    check_lp(in, out, w.kind == Kind::WorstCase, checks);
  }
}

// ---- measurement -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_outputs(const Workload& w, const std::vector<obs::Json>& recs) {
  for (const obs::Json& r : recs) std::cout << w.name << " output " << r.dump() << "\n";
}

std::vector<Metric> measure_end_to_end(const Workload& w, std::uint64_t seed,
                                       const References& refs, Checks& checks) {
  std::vector<double> setup_s;
  Inputs in;
  const Stopwatch window;
  while (setup_s.size() < kMinSetupReps || window.seconds() < kSetupSeconds) {
    // Free the previous inputs first, so every repetition after the first
    // starts from the same allocator state.
    in = Inputs{};
    Stopwatch sw;
    in = setup(w, seed);
    setup_s.push_back(sw.seconds());
  }

  Stopwatch sw;
  const Outputs out = run_library(w, in, seed);
  const double wall_s = sw.seconds();
  const double cpu_s = sw.cpu_seconds();
  const std::vector<obs::Json> recs = records(w, in, out);
  print_outputs(w, recs);
  check_outputs(w, in, out, recs, seed, refs, checks);

  std::cout << w.name << " setup_reps " << setup_s.size() << "\n";
  return {{"wall_s", wall_s, "s"},
          {"cpu_s", cpu_s, "s"},
          {"setup_s", median(setup_s), "s"},
          {"peak_rss_mb", perf::process_peak_rss_kb() / 1024.0, "MB"}};
}

/// Inclusive durations of the root's direct children, summed by span name.
struct LayerTable {
  std::map<std::string, double> seconds;
  double root_s = 0.0;
  double solve_point_max_s = 0.0;  // slowest single lp.solve_* span
};

LayerTable layer_table(std::uint64_t root_id) {
  LayerTable t;
  for (const trace::Event& e : trace::Tracer::instance().events()) {
    if (e.type != trace::Event::Type::kSpan) continue;
    const double s = 1e-9 * static_cast<double>(e.dur_ns);
    if (e.id == root_id) {
      t.root_s = s;
    } else if (e.parent == root_id) {
      t.seconds[e.name] += s;
      if (e.name.rfind("lp.solve_", 0) == 0) t.solve_point_max_s = std::max(t.solve_point_max_s, s);
    }
  }
  return t;
}

std::vector<Metric> measure_layers(const Workload& w, std::uint64_t seed, const References& refs,
                                   Checks& checks) {
  obs::Registry& registry = obs::Registry::instance();
  registry.reset();
  registry.set_timing_enabled(true);
  perf::PerfConfig perf_cfg;
  perf_cfg.force_rusage = true;  // only the allocation counters are read
  perf::start(perf_cfg);
  perf::PhaseSampler sampler;
  trace::Tracer::instance().start();

  const std::string root_name = std::string("bench.") + w.name;
  std::uint64_t root_id = 0;
  double traced_body_s = 0.0;
  Inputs in;
  Outputs out;
  {
    trace::Span root(root_name);
    root_id = root.context().id;
    in = setup(w, seed);
    Stopwatch sw;
    out = run_traced(w, in, seed);
    traced_body_s = sw.seconds();
  }
  trace::Tracer::instance().stop();
  const perf::Sample allocs = sampler.sample();
  perf::stop();
  registry.set_timing_enabled(false);
  const obs::Snapshot snap = registry.snapshot();
  const LayerTable layers = layer_table(root_id);

  const std::vector<obs::Json> recs = records(w, in, out);
  print_outputs(w, recs);
  check_outputs(w, in, out, recs, seed, refs, checks);
  // run.py divides this by the untraced wall_s to give the tracing overhead.
  std::cout << w.name << " traced_body_s " << fmt(traced_body_s) << " s\n";
  checks.expect(trace::Tracer::instance().dropped() == 0,
                std::to_string(trace::Tracer::instance().dropped()) + " trace events dropped");

  double attributed = 0.0;
  for (const auto& [name, s] : layers.seconds) {
    attributed += s;
    std::cout << w.name << " layer " << name << " " << fmt(s) << " s "
              << fmt(100.0 * s / layers.root_s) << "%\n";
  }
  const double unattributed = layers.root_s - attributed;
  std::cout << w.name << " layer (root) " << fmt(layers.root_s) << " s, unattributed "
            << fmt(unattributed) << " s\n";
  checks.expect(attributed >= 0.95 * layers.root_s,
                "layer spans cover " + fmt(100.0 * attributed / layers.root_s) +
                    "% of the root (need 95%)");

  const auto span_s = [&](const std::string& name) {
    const auto it = layers.seconds.find(name);
    return it == layers.seconds.end() ? 0.0 : it->second;
  };
  const auto count = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto timer_s = [&](const char* name) {
    const auto it = snap.timers.find(name);
    return it == snap.timers.end() ? 0.0 : it->second.wall_seconds;
  };
  const auto gauge = [&](const char* name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  // Adopted = accepted unchanged or after patching (lp.*.repaired).
  const auto adopted = [&](const std::string& channel) {
    return count((channel + ".accepted").c_str()) + count((channel + ".repaired").c_str());
  };

  const double solve_s = span_s("lp.solve_cold") + span_s("lp.solve_warm");
  const double kernels_s = timer_s("lp.simplex.time.btran") + timer_s("lp.simplex.time.ftran") +
                           timer_s("lp.simplex.time.refactor") +
                           timer_s("lp.simplex.time.pricing") +
                           timer_s("lp.simplex.time.ratio_test");
  std::vector<Metric> m = {
      {"graph.torus_s", span_s("graph.torus"), "s"},
      {"routing.build_s", span_s("routing.build"), "s"},
      {"traffic.samples_s", span_s("traffic.samples"), "s"},
      {"core.build_s", span_s("core.build"), "s"},
      {"core.model_nnz", gauge("core.design.nnz"), "count"},
      {"lp.crash_hints_s", span_s("lp.crash_hints"), "s"},
      {"lp.crash.attempts", count("lp.crash.attempts"), "count"},
      {"lp.crash.accept_ratio", ratio(adopted("lp.crash"), count("lp.crash.attempts")), "ratio"},
      {"lp.solve_cold_s", span_s("lp.solve_cold"), "s"},
      {"lp.phase1_iterations", count("lp.simplex.phase1_iterations"), "count"},
      {"lp.solve_warm_s", span_s("lp.solve_warm"), "s"},
      {"lp.warmstart.attempts", count("lp.warmstart.attempts"), "count"},
      {"lp.warmstart.accept_ratio",
       ratio(adopted("lp.warmstart"), count("lp.warmstart.attempts")), "ratio"},
      {"lp.dual.solves", count("lp.dual.solves"), "count"},
      {"lp.dual_iterations", count("lp.dual.iterations"), "count"},
      {"lp.dual.reoptimized_ratio", ratio(count("lp.dual.reoptimized"), count("lp.dual.solves")),
       "ratio"},
      {"lp.solve_point_max_s", layers.solve_point_max_s, "s"},
      {"lp.iterations", count("lp.simplex.iterations"), "count"},
      {"lp.refactorizations", count("lp.simplex.refactorizations"), "count"},
      {"lp.degenerate_pivots", count("lp.simplex.degenerate_pivots"), "count"},
      {"lp.recovery.attempts", count("lp.recovery.attempts"), "count"},
      {"lp.ns_per_iteration", ratio(1e9 * solve_s, count("lp.simplex.iterations")), "ns"},
      {"lp.btran_s", timer_s("lp.simplex.time.btran"), "s"},
      {"lp.ftran_s", timer_s("lp.simplex.time.ftran"), "s"},
      {"lp.refactor_s", timer_s("lp.simplex.time.refactor"), "s"},
      {"lp.pricing_s", timer_s("lp.simplex.time.pricing"), "s"},
      {"lp.ratio_test_s", timer_s("lp.simplex.time.ratio_test"), "s"},
      {"lp.other_s", solve_s > 0.0 ? solve_s - kernels_s : 0.0, "s"},
      {"metrics.pair_load_s", span_s("metrics.pair_load"), "s"},
      {"matching.hungarian_s", span_s("matching.hungarian"), "s"},
      {"metrics.average_case_s", span_s("metrics.average_case"), "s"},
      {"sim.init_s", span_s("sim.init"), "s"},
  };

  // Simulator rows; all zero on the LP workloads.
  const bool sim = w.kind == Kind::Sim;
  double run_s[kNumSimLoads][kNumSimThreads] = {};
  double node_cycles = 0.0, ejected = 0.0, flit_cycles = 0.0;
  for (int l = 0; l < kNumSimLoads && sim; ++l) {
    for (int ti = 0; ti < kNumSimThreads; ++ti) {
      run_s[l][ti] = span_s("sim.run." + sim_run_name(l, ti));
    }
    const SimStats& s = out.sims[l][0];
    node_cycles += static_cast<double>(in.torus->num_nodes()) * static_cast<double>(s.cycles_run);
    ejected += static_cast<double>(s.ejected);
    flit_cycles += static_cast<double>(s.flit_cycles);
  }
  for (int l = 0; l < kNumSimLoads; ++l) {
    for (int ti = 0; ti < kNumSimThreads; ++ti) {
      m.push_back({"sim.run_s." + sim_run_name(l, ti), run_s[l][ti], "s"});
    }
  }
  for (int l = 0; l < kNumSimLoads; ++l) {
    for (int ti = 1; ti < kNumSimThreads; ++ti) {
      m.push_back({"sim.parallel_eff." + sim_run_name(l, ti),
                   ratio(run_s[l][0], kSimThreads[ti] * run_s[l][ti]), "ratio"});
    }
  }
  for (int ti = 0; ti < kNumSimThreads; ++ti) {
    double busy = 0.0;
    for (int l = 0; l < kNumSimLoads; ++l) busy += run_s[l][ti];
    m.push_back({"sim.mnode_cycles_per_s.t" + std::to_string(kSimThreads[ti]),
                 ratio(1e-6 * node_cycles, busy), "Mnode-cycles/s"});
  }
  m.push_back({"sim.ns_per_node_cycle.t1", ratio(1e9 * (run_s[0][0] + run_s[1][0]), node_cycles),
               "ns"});
  m.push_back({"sim.flits_ejected", ejected, "count"});
  m.push_back({"sim.flit_cycles", flit_cycles, "count"});

  m.push_back({"process.alloc_count", static_cast<double>(allocs.alloc_count), "count"});
  m.push_back({"process.alloc_mb", static_cast<double>(allocs.alloc_bytes) / (1024.0 * 1024.0),
               "MB"});
  m.push_back({"unattributed_s", unattributed, "s"});
  return m;
}

int usage() {
  std::cerr << "usage: tcr-bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

bool load(const std::string& path, report::GoldenFile* out) {
  std::string error;
  if (report::load_golden(path, out, &error)) return true;
  std::cerr << "error: " << error << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) w = &candidate;
  }
  const std::string mode = cli.get_string("trace", "0");
  if (w == nullptr || (mode != "0" && mode != "1")) return usage();
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(cli.get_string("seed", "0"));
    // --seconds is checked but not used; see the header comment.
    if (cli.get_double("seconds", 0.0) < 0.0) return usage();
  } catch (const std::exception&) {
    return usage();
  }

  References refs;
  if (!load(TCR_BENCH_SOURCE_DIR "/../bench/golden.json", &refs.golden) ||
      !load(TCR_BENCH_SOURCE_DIR "/reference.json", &refs.reference)) {
    return 2;
  }

  std::cout << w->name << " provenance " << perf::provenance_json().dump() << "\n";
  Checks checks(w->name);
  const std::vector<Metric> metrics = mode == "0"
                                          ? measure_end_to_end(*w, seed, refs, checks)
                                          : measure_layers(*w, seed, refs, checks);

  std::cout << w->name << " checks " << checks.attempted() - checks.failed() << "/"
            << checks.attempted() << " passed\n";
  auto metrics_json = obs::Json::object();
  for (const Metric& m : metrics) {
    std::cout << w->name << " " << m.name << " " << fmt(m.value) << " " << m.unit << "\n";
    auto v = obs::Json::object();
    v.set("value", m.value).set("unit", m.unit);
    metrics_json.set(m.name, std::move(v));
  }
  auto result = obs::Json::object();
  result.set("correct", checks.failed() == 0)
      .set("attempted", checks.attempted())
      .set("failed", checks.failed())
      .set("metrics", std::move(metrics_json));
  std::cout << result.dump() << std::endl;
  return checks.failed() == 0 ? 0 : 1;
}
