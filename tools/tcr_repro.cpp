// tcr-repro — one-command figure/table reproduction harness.
//
// Runs every bench of a named preset, consumes their uniform `--json`
// records (tcr::report schema), gates the headline quantities against the
// checked-in golden file (bench/golden.json), writes a machine-readable
// report.json, and regenerates EXPERIMENTS.md from the prose template plus
// the golden values so the committed document can never drift from what the
// binaries print.
//
//   tcr-repro --preset smoke                 # fast CI gate (k=4-scale)
//   tcr-repro --preset full                  # every paper figure/table
//   tcr-repro --preset fig1 --threads 4      # one figure, overridden flags
//   tcr-repro --render-only --check-experiments EXPERIMENTS.md
//
// Flags:
//   --preset smoke|fig1|table1|full   which benches to run (required unless
//                                     --render-only)
//   --bench-dir DIR     where the bench binaries live (default: ../bench
//                       relative to this executable)
//   --out DIR           output directory for .jsonl/.txt/report.json and the
//                       regenerated EXPERIMENTS.md (default: repro-out)
//   --records-dir DIR   consume existing .jsonl records instead of running
//                       the benches (re-gate without re-running)
//   --golden PATH       golden file (default: <source>/bench/golden.json)
//   --template PATH     prose template (default:
//                       <source>/docs/experiments.tmpl.md)
//   --check-experiments PATH  diff the regenerated EXPERIMENTS.md against
//                       PATH and fail on any byte difference
//   --render-only       only regenerate EXPERIMENTS.md (no benches, no gate)
//   --no-gate           run benches and report, but skip the golden gate
//   --k/--samples/--threads N   forwarded to the benches that accept them;
//                       --k and --samples change the measured quantities, so
//                       they disable the golden gate (recorded in report.json)
//   --trace             also collect a span trace per bench: each bench runs
//                       with --trace <out>/<bench>.trace.json (Perfetto
//                       loadable, analyzable with tcr-trace); does not affect
//                       the records or the gate
//   --perf              forward --perf to every bench, so each record carries
//                       a hardware-counter/rusage perf block; the resulting
//                       .jsonl files are ingestible with `tcr-perf append`;
//                       does not affect the series values or the gate
//   --heartbeat         forward --heartbeat <out>/<bench>.hb to every bench:
//                       each run emits a live telemetry stream watchable with
//                       `tcr-top --follow`; cooperative sampling, so records
//                       and the gate are unaffected
//   --list              print the presets and their bench command lines
//
// Exit codes:
//   0  everything ran, gated and matched
//   2  usage / configuration error
//   3  a bench binary failed to run
//   4  records violated the schema (or were unparseable)
//   5  golden gate breached (value out of tolerance, missing quantity, or a
//      failed solve certificate anywhere in the records)
//   6  documentation drift (--check-experiments found a difference)
//
// A bench exiting with code 7 (bench::kExitPartial) was cut short by run
// control (deadline/budget/signal — see tcr::guard): its records are valid
// but incomplete, so the run is reported as "partial (run control)" and the
// golden gate is skipped (recorded in report.json as partial benches with
// gating_enabled:false). Record files are read tail-tolerantly: a torn
// final line (writer killed mid-record) is dropped, noted, and likewise
// makes the run partial; corruption anywhere else is still exit 4.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tcr/report/golden.hpp"
#include "tcr/report/markdown.hpp"
#include "tcr/report/report.hpp"
#include "tcr/report/schema.hpp"
#include "tcr/util/cli.hpp"

#ifndef TCR_REPRO_SOURCE_DIR
#define TCR_REPRO_SOURCE_DIR ""
#endif

namespace {

namespace fs = std::filesystem;
using namespace tcr;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitBenchFailed = 3;
constexpr int kExitSchema = 4;
constexpr int kExitGoldenBreach = 5;
constexpr int kExitDocDrift = 6;
// What a bench returns when run control stopped it early (bench::kExitPartial).
constexpr int kBenchExitPartial = 7;

struct BenchSpec {
  std::string bench;              // bench id ("fig1_wc_tradeoff" -> bench_fig1_wc_tradeoff)
  std::vector<std::string> args;  // preset flags
  bool takes_k = false;           // accepts the --k override
  bool takes_samples = false;     // accepts the --samples override
  bool takes_threads = false;     // accepts the --threads override
};

// The preset registry. "smoke" is sized for CI: every bench at k=4-scale,
// seconds of wall clock, while still exercising every LP/simulator path the
// full run uses. The golden file carries quantities for both scales.
std::vector<BenchSpec> preset_benches(const std::string& preset) {
  const BenchSpec table1{"table1_algorithms", {}, true, true, false};
  const BenchSpec fig1{"fig1_wc_tradeoff", {}, true, false, true};
  const BenchSpec fig4{"fig4_locality_vs_radix", {}, false, false, false};
  const BenchSpec fig5{"fig5_interpolation", {}, true, false, true};
  const BenchSpec fig6{"fig6_avg_tradeoff", {}, true, true, true};
  const BenchSpec avgcase{"avgcase_approx", {}, true, true, false};
  const BenchSpec sim{"sim_saturation", {}, true, false, true};
  const BenchSpec ablation{"ablation_solver", {}, false, false, false};

  auto with_args = [](BenchSpec spec, std::vector<std::string> args) {
    spec.args = std::move(args);
    return spec;
  };

  if (preset == "smoke") {
    return {
        with_args(table1, {"--k", "4", "--samples", "10", "--design-samples", "4"}),
        with_args(fig1, {"--k", "4", "--points", "5"}),
        with_args(fig4, {"--kmin", "3", "--kmax", "4"}),
        with_args(fig5, {"--k", "4", "--alphas", "3", "--curve-points", "5"}),
        with_args(fig6, {"--k", "4", "--points", "3", "--samples", "10", "--design-samples", "4"}),
        with_args(avgcase, {"--k", "4", "--samples", "10"}),
        with_args(sim, {"--k", "4", "--cycles", "500"}),
        with_args(ablation, {"--kmin", "3", "--kmax", "3"}),
    };
  }
  if (preset == "fig1") return {fig1};
  if (preset == "table1") return {table1};
  if (preset == "full") return {fig1, table1, fig4, fig5, fig6, avgcase, sim, ablation};
  return {};
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') out += "'\\''";
    else out += c;
  }
  out += "'";
  return out;
}

/// Run one bench, teeing stdout/stderr to <out>/<bench>.txt and records to
/// <out>/<bench>.jsonl. Returns the bench's exit code (-1: could not run).
int run_bench(const fs::path& bench_dir, const BenchSpec& spec,
              const std::vector<std::string>& overrides, const fs::path& out_dir,
              bool with_trace, bool with_perf, bool with_heartbeat) {
  const fs::path binary = bench_dir / ("bench_" + spec.bench);
  std::string cmd = shell_quote(binary.string());
  // Appends are two-step (no `+= a + b` temporaries): GCC 12's -Wrestrict
  // misfires on appending a concatenated temporary (PR105651).
  for (const std::string& arg : spec.args) {
    cmd += ' ';
    cmd += shell_quote(arg);
  }
  for (const std::string& arg : overrides) {
    cmd += ' ';
    cmd += shell_quote(arg);
  }
  cmd += " --json ";
  cmd += shell_quote((out_dir / (spec.bench + ".jsonl")).string());
  if (with_trace) {
    cmd += " --trace ";
    cmd += shell_quote((out_dir / (spec.bench + ".trace.json")).string());
  }
  if (with_perf) cmd += " --perf";
  if (with_heartbeat) {
    cmd += " --heartbeat ";
    cmd += shell_quote((out_dir / (spec.bench + ".hb")).string());
  }
  cmd += " > " + shell_quote((out_dir / (spec.bench + ".txt")).string()) + " 2>&1";
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
#ifdef WIFEXITED
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
#else
  return status;
#endif
}

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

/// Default bench dir: ../bench next to this executable (the build tree
/// layout: build/tools/tcr-repro and build/bench/bench_*).
fs::path default_bench_dir(const char* argv0) {
  const fs::path exe(argv0);
  if (exe.has_parent_path()) return exe.parent_path().parent_path() / "bench";
  return fs::path("bench");
}

void print_presets() {
  for (const std::string preset : {"smoke", "fig1", "table1", "full"}) {
    std::cout << preset << ":\n";
    for (const BenchSpec& spec : preset_benches(preset)) {
      std::cout << "  bench_" << spec.bench;
      for (const std::string& arg : spec.args) std::cout << ' ' << arg;
      std::cout << '\n';
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);

  if (cli.has("list")) {
    print_presets();
    return kExitOk;
  }

  const std::string source_dir = TCR_REPRO_SOURCE_DIR;
  const std::string preset = cli.get_string("preset", "");
  const bool render_only = cli.has("render-only");
  const fs::path out_dir = cli.get_string("out", "repro-out");
  const fs::path golden_path =
      cli.get_string("golden", source_dir.empty() ? "bench/golden.json"
                                                  : source_dir + "/bench/golden.json");
  const fs::path template_path = cli.get_string(
      "template",
      source_dir.empty() ? "docs/experiments.tmpl.md" : source_dir + "/docs/experiments.tmpl.md");
  const std::string check_experiments = cli.get_string("check-experiments", "");
  const std::string records_dir = cli.get_string("records-dir", "");

  if (!render_only && preset_benches(preset).empty()) {
    std::cerr << "usage: tcr-repro --preset smoke|fig1|table1|full [flags]\n"
                 "       tcr-repro --render-only [--check-experiments PATH]\n"
                 "       tcr-repro --list\n";
    return kExitUsage;
  }

  std::error_code ec;
  fs::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot create output directory '" << out_dir.string() << "': "
              << ec.message() << "\n";
    return kExitUsage;
  }

  // --- golden + template load (needed by every mode) ---
  report::GoldenFile golden;
  std::string error;
  if (!report::load_golden(golden_path.string(), &golden, &error)) {
    std::cerr << "error: golden file: " << error << "\n";
    return kExitUsage;
  }
  std::string template_text;
  if (!read_file(template_path, &template_text)) {
    std::cerr << "error: cannot read template '" << template_path.string() << "'\n";
    return kExitUsage;
  }

  // --- regenerate EXPERIMENTS.md (depends only on template + golden) ---
  std::string experiments;
  if (!report::render_experiments(template_text, golden, &experiments, &error)) {
    std::cerr << "error: rendering EXPERIMENTS.md: " << error << "\n";
    return kExitUsage;
  }
  const fs::path experiments_out = out_dir / "EXPERIMENTS.md";
  if (!write_file(experiments_out, experiments)) {
    std::cerr << "error: cannot write '" << experiments_out.string() << "'\n";
    return kExitUsage;
  }
  std::cout << "regenerated " << experiments_out.string() << "\n";

  int doc_drift_exit = kExitOk;
  if (!check_experiments.empty()) {
    std::string committed;
    if (!read_file(check_experiments, &committed)) {
      std::cerr << "error: cannot read '" << check_experiments << "'\n";
      return kExitUsage;
    }
    if (committed != experiments) {
      std::cerr << "DOC DRIFT: " << check_experiments
                << " differs from the regenerated document (" << experiments_out.string()
                << ").\nRegenerate it:  tcr-repro --render-only && cp "
                << experiments_out.string() << " EXPERIMENTS.md\n";
      doc_drift_exit = kExitDocDrift;
    } else {
      std::cout << check_experiments << " is in sync with the template + golden file\n";
    }
  }
  if (render_only) return doc_drift_exit;

  // --- run the preset's benches (or adopt existing records) ---
  const std::vector<BenchSpec> specs = preset_benches(preset);
  std::vector<std::string> overrides;
  bool quantities_overridden = false;
  // Build per-bench override lists lazily below; collect the global ones here.
  const bool has_k = cli.has("k"), has_samples = cli.has("samples"), has_threads = cli.has("threads");
  quantities_overridden = has_k || has_samples;

  const fs::path bench_dir = cli.get_string("bench-dir", default_bench_dir(argv[0]).string());
  const fs::path records_from = records_dir.empty() ? out_dir : fs::path(records_dir);

  std::vector<report::BenchOutcome> outcomes;
  std::vector<report::BenchRun> runs;
  for (const BenchSpec& spec : specs) {
    report::BenchOutcome outcome;
    outcome.bench = spec.bench;
    if (records_dir.empty()) {
      overrides.clear();
      if (has_k && spec.takes_k) {
        overrides.push_back("--k");
        overrides.push_back(cli.get_string("k", ""));
      }
      if (has_samples && spec.takes_samples) {
        overrides.push_back("--samples");
        overrides.push_back(cli.get_string("samples", ""));
      }
      if (has_threads && spec.takes_threads) {
        overrides.push_back("--threads");
        overrides.push_back(cli.get_string("threads", ""));
      }
      std::cout << "running bench_" << spec.bench << " ..." << std::flush;
      outcome.exit_code =
          run_bench(bench_dir, spec, overrides, out_dir, cli.has("trace"), cli.has("perf"),
                    cli.has("heartbeat"));
      if (outcome.exit_code == kBenchExitPartial) {
        outcome.partial = true;
        std::cout << " partial (run control)\n";
      } else {
        std::cout << (outcome.exit_code == 0 ? " ok" : " FAILED") << "\n";
      }
      if (outcome.exit_code != 0 && !outcome.partial) {
        std::cerr << "error: bench_" << spec.bench << " exited with code " << outcome.exit_code
                  << "; see " << (out_dir / (spec.bench + ".txt")).string() << "\n";
        return kExitBenchFailed;
      }
    }
    const fs::path jsonl = records_from / (spec.bench + ".jsonl");
    outcome.records_path = jsonl.string();

    report::BenchRun run;
    report::RunFileOptions read_options;
    read_options.tolerate_truncated_tail = true;
    if (!report::parse_run_file(jsonl.string(), &run, &error, read_options)) {
      std::cerr << "error: schema: " << error << "\n";
      return kExitSchema;
    }
    if (!run.truncation_note.empty()) {
      outcome.partial = true;
      std::cout << "note: " << jsonl.string() << ": " << run.truncation_note
                << " — treating the run as partial\n";
    }
    if (run.bench != spec.bench) {
      std::cerr << "error: schema: " << jsonl.string() << " holds records of bench '"
                << run.bench << "', expected '" << spec.bench << "'\n";
      return kExitSchema;
    }
    outcome.records = run.records.size();
    outcomes.push_back(std::move(outcome));
    runs.push_back(std::move(run));
  }

  // --- golden gate ---
  bool any_partial = false;
  for (const report::BenchOutcome& outcome : outcomes) any_partial |= outcome.partial;
  const bool gating = !cli.has("no-gate") && !quantities_overridden && !any_partial;
  if (!gating && !cli.has("no-gate")) {
    if (any_partial) {
      std::cout << "note: partial run (run control / truncated records); "
                   "golden gating disabled — rerun to completion (or --resume) to gate\n";
    } else {
      std::cout << "note: --k/--samples overrides change the measured quantities; "
                   "golden gating disabled for this run\n";
    }
  }
  std::vector<report::Comparison> comparisons;
  if (gating) comparisons = report::compare_preset(golden, preset, runs);
  const report::CertificateTally certs = report::tally_certificates(runs);

  // --- report.json ---
  const obs::Json report_doc = report::build_report(preset, gating, outcomes, comparisons, certs);
  const fs::path report_path = out_dir / "report.json";
  {
    std::ofstream out(report_path, std::ios::trunc);
    report_doc.dump(out);
    out << "\n";
    if (!out.good()) {
      std::cerr << "error: cannot write '" << report_path.string() << "'\n";
      return kExitUsage;
    }
  }

  // --- human summary ---
  const report::Summary summary = report::summarize(comparisons);
  std::cout << "\npreset " << preset << ": " << runs.size() << " benches, "
            << certs.checked << " certified solves (" << certs.failed << " failed), "
            << summary.total << " golden quantities checked: " << summary.passed << " pass, "
            << summary.breached << " breach, " << summary.missing << " missing\n"
            << "report: " << report_path.string() << "\n";
  bool gate_failed = false;
  for (const report::Comparison& cmp : comparisons) {
    if (cmp.outcome == report::Comparison::Outcome::Pass) continue;
    gate_failed = true;
    std::cerr << (cmp.outcome == report::Comparison::Outcome::Breach ? "" : "MISSING QUANTITY ")
              << cmp.reason << "\n";
  }
  if (certs.failed > 0) {
    gate_failed = true;
    std::cerr << "CERTIFICATE FAILURE: " << certs.failed
              << " solve certificate(s) failed — see the .jsonl records in "
              << records_from.string() << "\n";
  }
  if (gating && gate_failed) return kExitGoldenBreach;
  return doc_drift_exit;
}
