// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tcr/core/tradeoff.hpp"
#include "tcr/fault/fault.hpp"
#include "tcr/guard/guard.hpp"
#include "tcr/guard/journal.hpp"
#include "tcr/lp/model.hpp"
#include "tcr/lp/simplex.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/telemetry/telemetry.hpp"
#include "tcr/obs/json.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/perf/perf.hpp"
#include "tcr/perf/provenance.hpp"
#include "tcr/report/schema.hpp"
#include "tcr/trace/export.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/routing/rlb.hpp"
#include "tcr/routing/romm.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/util/cli.hpp"
#include "tcr/util/table.hpp"
#include "tcr/util/thread_pool.hpp"

namespace tcr::bench {

/// The six Table-1 algorithms, constructed for a given torus.
inline std::vector<TorusRouting> table1_algorithms(const Torus& t) {
  std::vector<TorusRouting> algos;
  algos.push_back(make_dor(t));
  algos.push_back(make_romm(t));
  algos.push_back(make_rlb(t));
  algos.push_back(make_rlbth(t));
  algos.push_back(make_valiant(t));
  algos.push_back(make_ival(t));
  return algos;
}

/// Sweep-execution flags shared by the tradeoff benches: `--cold` disables
/// warm-start basis chaining (`--warm`, the default, re-enables it so runs
/// can be compared flag-for-flag), and `--chains N` overrides how many
/// contiguous warm-start chains the sweep is partitioned into.
inline SweepConfig sweep_config(const Cli& cli) {
  SweepConfig cfg;
  if (cli.has("cold")) cfg.warm_start = false;
  if (cli.has("warm")) cfg.warm_start = true;
  cfg.chains = cli.get_int("chains", 0);
  return cfg;
}

/// `--threads N` pool for the tradeoff sweeps: N > 1 returns a pool of that
/// size, otherwise nullptr (serial). The point series is identical either
/// way — the chain partition depends only on (points, chains) — so the flag
/// trades wall-clock, never results.
inline std::unique_ptr<ThreadPool> sweep_pool(const Cli& cli) {
  const int threads = cli.get_int("threads", 1);
  return threads > 1 ? std::make_unique<ThreadPool>(static_cast<std::size_t>(threads)) : nullptr;
}

/// JSON view of an lp::Certificate for a point record; every LP-backed bench
/// attaches this so downstream tooling can assert that the published numbers
/// came from independently certified solves.
inline obs::Json certificate_json(const lp::Certificate& cert) {
  auto j = obs::Json::object();
  j.set("checked", cert.checked).set("pass", cert.pass);
  if (cert.checked) {
    j.set("primal_residual", cert.primal_residual)
        .set("bound_violation", cert.bound_violation)
        .set("dual_violation", cert.dual_violation)
        .set("complementarity", cert.complementarity)
        .set("duality_gap", cert.duality_gap)
        .set("worst", cert.worst());
    if (!cert.pass) j.set("reason", cert.reason);
  }
  return j;
}

/// Exit status a bench returns when run control cut the run short: every
/// emitted record is valid but the run is partial — tcr-repro reports it as
/// "partial (run control)" and skips golden gating instead of failing the
/// schema.
inline constexpr int kExitPartial = 7;

/// Run-control flags shared by every bench (tcr::guard):
///
///   --deadline S        wall-clock deadline in seconds
///   --budget N          cumulative simplex-iteration budget
///   --rss-limit-mb M    peak-RSS cap
///   --checkpoint PATH   journal every completed sweep point to PATH
///   --resume PATH       replay completed points from PATH, journal new ones
///                       to it, and re-chain warm starts
///
/// The constructor arms one CancelToken with the budget, points SIGINT/
/// SIGTERM at it (so kills unwind cooperatively: the journal stays valid
/// and the --json report is flushed complete-but-partial), opens/validates
/// the checkpoint journal, and honors the TCR_FAULT_STALL_* injection env
/// (fault::install_env_simplex_faults) so e2e tests can slow solves down
/// from outside. apply() threads the token into sweeps, solver options and
/// simulator configs; exit_code() turns a fired token into kExitPartial.
class RunControl {
 public:
  explicit RunControl(const Cli& cli) {
    fault::install_env_simplex_faults();
    guard::RunBudget budget;
    budget.deadline_seconds = cli.get_double("deadline", 0.0);
    budget.max_iterations = cli.get_int("budget", 0);
    budget.max_rss_kb = static_cast<std::int64_t>(cli.get_int("rss-limit-mb", 0)) * 1024;
    token_.arm(budget);
    signals_ = std::make_unique<guard::SignalGuard>(token_);

    const std::string resume_path = cli.get_string("resume", "");
    journal_path_ = resume_path.empty() ? cli.get_string("checkpoint", "") : resume_path;
    if (!resume_path.empty()) {
      resume_ = std::make_unique<SweepResume>();
      bool torn = false;
      std::string error;
      if (!load_sweep_resume(resume_path, resume_.get(), &torn, &error)) {
        std::cerr << "error: --resume: " << error << "\n";
        std::exit(1);
      }
      std::cout << "resume: " << resume_->points.size() << " completed point(s) from "
                << resume_path << (torn ? " (dropped a torn final record)" : "") << "\n";
    }
    if (!journal_path_.empty()) {
      std::string error;
      if (!journal_.open(journal_path_, &error)) {
        std::cerr << "error: --checkpoint/--resume: " << error << "\n";
        std::exit(1);
      }
    }
  }

  guard::CancelToken& token() { return token_; }
  bool cancelled() const { return token_.cancelled(); }

  /// Wire the token (and any journal/resume state) into a tradeoff sweep
  /// and the solver options it will use.
  void apply(SweepConfig& sweep, lp::SimplexOptions& opts) {
    sweep.cancel = &token_;
    opts.cancel = &token_;
    if (journal_.is_open()) sweep.journal = &journal_;
    if (resume_ != nullptr) sweep.resume = resume_.get();
  }

  /// Wire the token into a simulator run.
  void apply(SimConfig& sim) { sim.cancel = &token_; }

  /// 0 for a complete run, kExitPartial when the token fired.
  int exit_code() const { return cancelled() ? kExitPartial : 0; }

  /// Print the stop diagnosis (if any) and return exit_code().
  int finish() const {
    if (cancelled()) {
      std::cout << "run control: stopped early — " << token_.note() << "\n";
    }
    return exit_code();
  }

  /// Canonical sweep result file `<journal>.report.json`: a pure function
  /// of the point series — no obs counters, no provenance stamps, no
  /// timing — so a killed-then-resumed sweep must match an uninterrupted
  /// one *bitwise* (the resume e2e gate compares with cmp). Written only
  /// when the journal is in use and every point reached a terminal result
  /// (a cancelled run has nothing canonical to claim). "resumed" points
  /// are recorded as "measured": replaying a journal is not a result
  /// change.
  void write_sweep_report(const std::string& bench,
                          const std::vector<TradeoffPoint>& points) const {
    if (journal_path_.empty() || cancelled()) return;
    auto doc = obs::Json::object();
    doc.set("kind", "sweep_report").set("bench", bench);
    auto arr = obs::Json::array();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const TradeoffPoint& pt = points[i];
      auto p = obs::Json::object();
      p.set("index", static_cast<std::int64_t>(i))
          .set("locality", pt.locality)
          .set("capacity_fraction", pt.capacity_fraction)
          .set("status", lp::to_string(pt.status))
          .set("note", pt.note)
          .set("warm_start", pt.warm_start)
          .set("iterations", static_cast<std::int64_t>(pt.iterations))
          .set("provenance",
               pt.provenance == "resumed" ? std::string("measured") : pt.provenance)
          .set("certificate", certificate_json(pt.certificate));
      arr.push_back(std::move(p));
    }
    doc.set("points", std::move(arr));
    const std::string path = journal_path_ + ".report.json";
    std::ofstream out(path, std::ios::trunc);
    doc.dump(out);
    out << "\n";
    if (!out) {
      std::cerr << "error: cannot write sweep report '" << path << "'\n";
      std::exit(1);
    }
    std::cout << "sweep report written to " << path << "\n";
  }

 private:
  guard::CancelToken token_;
  std::unique_ptr<guard::SignalGuard> signals_;
  std::unique_ptr<SweepResume> resume_;
  guard::JournalWriter journal_;
  std::string journal_path_;
};

/// Live telemetry behind every bench's `--heartbeat[=path]` flag
/// (tcr::telemetry): while the run is in flight, heartbeat records — phase,
/// sweep/sim/solver progress sampled from the trace spans and counters,
/// guard budget state, obs counter deltas — are appended to a crash-safe
/// stream that `tcr-top --follow` renders live.
///
///   --heartbeat [PATH]        enable; PATH defaults to <bench>.hb
///   --heartbeat-interval S    seconds between heartbeats (default 0.5)
///
/// Construct after RunControl and pass its token so heartbeats carry
/// deadline/iteration/RSS budget state and the stop reason. Destruction
/// emits a final heartbeat and closes the stream; a killed run instead
/// leaves at most one torn record, which readers report as truncation.
/// Sampling is cooperative at deterministic sites, so the flag never
/// changes results — only wall-clock (see src/tcr/telemetry/telemetry.hpp).
class HeartbeatOutput {
 public:
  HeartbeatOutput(const Cli& cli, const std::string& bench_name,
                  const guard::CancelToken* token = nullptr) {
    if (!cli.has("heartbeat")) return;
    std::string path = cli.get_string("heartbeat", "");
    if (path.empty()) path = bench_name + ".hb";
    telemetry::HeartbeatConfig cfg;
    cfg.path = path;
    cfg.interval_seconds = cli.get_double("heartbeat-interval", 0.5);
    cfg.bench = bench_name;
    cfg.token = token;
    std::string error;
    if (!telemetry::start(cfg, &error)) {
      std::cerr << "error: --heartbeat: " << error << "\n";
      std::exit(1);
    }
    active_ = true;
    std::cout << "heartbeat stream: " << path << " (interval "
              << cfg.interval_seconds << " s)\n";
  }

  HeartbeatOutput(const HeartbeatOutput&) = delete;
  HeartbeatOutput& operator=(const HeartbeatOutput&) = delete;

  ~HeartbeatOutput() {
    if (active_) telemetry::stop();
  }

  bool enabled() const { return active_; }

 private:
  bool active_ = false;
};

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "==========================================================\n"
            << title << "\n(" << paper_ref << ")\n"
            << "==========================================================\n";
}

/// Machine-readable output behind every bench's `--json <path>` flag,
/// emitting the uniform record schema consumed by `tcr::report` / tcr-repro
/// (report::kSchemaVersion).
///
/// When the flag is present the helper opens a JSON-lines sink, writes the
/// run header
///   {"schema_version": V, "kind": "meta", "bench": <id>, "params": {...},
///    "provenance": {git_sha, compiler, build_type, cxx_flags, cpu}}
/// (where `params` are the run's resolved CLI parameters), enables the obs
/// registry's fine-grained timing, and zeroes all metrics. Each point() call
/// then appends one record
///   {"kind": "point", "bench": <id>, "point": <series values>,
///    "obs": <registry snapshot>}
/// and resets the registry again, so every snapshot covers exactly the work
/// done since the previous record. Without the flag, every call is a no-op
/// and timing stays off.
///
/// `--perf` additionally starts the perf::PhaseSampler machinery (hardware
/// counters when perf_event_open works, rusage otherwise) and attaches a
/// "perf" block to every point() record covering the same work window as its
/// obs snapshot; tcr-perf ingests those blocks into BENCH_history.json.
class JsonOutput {
 public:
  JsonOutput(const Cli& cli, std::string bench_name, obs::Json params)
      : bench_(std::move(bench_name)) {
    const std::string path = cli.get_string("json", "");
    if (path.empty()) return;
    sink_ = std::make_unique<obs::EventSink>(path);
    if (!sink_->ok()) {
      std::cerr << "error: cannot open --json output file '" << path << "'\n";
      std::exit(1);
    }
    auto meta = obs::Json::object();
    meta.set("schema_version", report::kSchemaVersion)
        .set("kind", "meta")
        .set("bench", bench_)
        .set("params", std::move(params))
        .set("provenance", perf::provenance_json());
    sink_->write(meta);
    obs::Registry::instance().set_timing_enabled(true);
    obs::Registry::instance().reset();
    if (cli.has("perf")) {
      perf::start();
      sampler_ = std::make_unique<perf::PhaseSampler>();
    }
  }

  ~JsonOutput() {
    if (sink_ && !sink_->ok()) {
      std::cerr << "error: --json output stream failed; records were lost\n";
      std::exit(1);
    }
  }

  bool enabled() const { return sink_ != nullptr; }

  /// Emit one record for a series point. `fields` should be a Json object
  /// holding the point's paper-series values.
  void point(obs::Json fields) { point(std::move(fields), {}); }

  /// point() with bench-computed additions to the record's perf block
  /// (attached only under --perf, like the sampled counters): each
  /// (name, value) pair becomes a "perf" field, so tcr-perf ingests it as
  /// quantity `perf.<name>` alongside wall_ns/cpu_ns/alloc_bytes. Benches
  /// use this for derived rates a hardware counter cannot express (e.g. the
  /// simulator's wall-ns per flit-cycle).
  void point(obs::Json fields, const std::vector<std::pair<std::string, double>>& extra_perf) {
    if (!sink_) return;
    auto rec = obs::Json::object();
    rec.set("kind", "point")
        .set("bench", bench_)
        .set("point", std::move(fields))
        .set("obs", obs::snapshot_json());
    if (sampler_) {
      // Same work window as the obs snapshot: sample the deltas since the
      // previous point() and re-baseline.
      auto perf_block = sampler_->sample().to_json();
      for (const auto& [name, value] : extra_perf) perf_block.set(name, value);
      rec.set("perf", std::move(perf_block));
      sampler_->reset();
    }
    sink_->write(rec);
    obs::Registry::instance().reset();
  }

  /// Emit one record *without* an obs snapshot and without resetting the
  /// registry. Sweeps that chain warm starts across points use this for the
  /// per-point rows and report the accumulated instrumentation (including
  /// the lp.warmstart.* counters) in one trailing summary point().
  void record(obs::Json fields) {
    if (!sink_) return;
    auto rec = obs::Json::object();
    rec.set("kind", "point").set("bench", bench_).set("point", std::move(fields));
    sink_->write(rec);
  }

 private:
  std::string bench_;
  std::unique_ptr<obs::EventSink> sink_;
  std::unique_ptr<perf::PhaseSampler> sampler_;
};

/// Span tracing behind every bench's `--trace <path>` flag.
///
/// When the flag is present the helper starts the process-wide
/// trace::Tracer (so Span/counter call sites throughout the library begin
/// collecting) and, on destruction at the end of the run, exports the
/// buffer as Chrome trace-event JSON to the given path — loadable in
/// Perfetto / chrome://tracing and analyzable with the tcr-trace tool.
/// `--trace-capacity N` overrides the ring-buffer event capacity. Without
/// `--trace`, tracing stays off and every instrumented site costs one
/// predicted branch.
class TraceOutput {
 public:
  explicit TraceOutput(const Cli& cli) : path_(cli.get_string("trace", "")) {
    if (path_.empty()) return;
    trace::TracerConfig cfg;
    cfg.capacity = static_cast<std::size_t>(
        cli.get_int("trace-capacity", static_cast<int>(cfg.capacity)));
    trace::Tracer::instance().start(cfg);
  }

  TraceOutput(const TraceOutput&) = delete;
  TraceOutput& operator=(const TraceOutput&) = delete;

  ~TraceOutput() {
    if (path_.empty()) return;
    trace::Tracer::instance().stop();
    std::string error;
    if (!trace::export_chrome_trace(path_, &error)) {
      std::cerr << "error: --trace export failed: " << error << "\n";
      std::exit(1);
    }
    std::cout << "trace written to " << path_ << "\n";
  }

  bool enabled() const { return !path_.empty(); }

 private:
  std::string path_;
};

/// One-line solver status for the text output: the status name plus the
/// solver's stop diagnosis when the solve did not reach optimality.
inline std::string status_line(lp::Status status, const std::string& note) {
  std::string s = lp::to_string(status);
  if (status != lp::Status::Optimal && !note.empty()) s += " (" + note + ")";
  return s;
}

}  // namespace tcr::bench
