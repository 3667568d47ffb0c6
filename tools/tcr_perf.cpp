// tcr-perf — the benchmark-history regression observatory over the perf
// blocks written by the benches' --perf flag (perf::PhaseSampler) and over
// google-benchmark json documents.
//
//   tcr-perf append --history H.json --commit abc123 run1.json run2.json
//   tcr-perf append --history H.json --commit abc123 --google-benchmark m.json
//   tcr-perf report --history H.json [--out PERF.md]
//   tcr-perf gate --history H.json               # newest commit vs previous
//   tcr-perf gate --history H.json --against abc123
//   tcr-perf gate --history H.json --baseline bench/BENCH_baseline.json
//   tcr-perf baseline --history H.json --out BENCH_baseline.json
//
// append distills each schema-v1 run file (recorded with --perf) into one
// history entry keyed by (bench, config, commit) and appends it to the
// store; repeats of the same key are separate entries and every consumer
// takes per-quantity medians, so regression detection is noise-aware.
// gate compares the newest commit's medians against a baseline — the
// previous distinct commit in the store by default, a pinned commit with
// --against, or a checked-in baseline file with --baseline — and prints one
// line per regressed quantity:
//
//   PERF REGRESSION <bench>/<config> <quantity>: baseline X candidate Y
//       (R.RRx > T.TTx)
//
// Machine-sensitive quantities (time, cycles, rss) are skipped when the two
// sides' provenance shows a different CPU or compiler; allocation counts
// gate across machines with the same compiler. --threshold Q=R overrides
// the per-quantity ratio (e.g. --threshold perf.cpu_ns=1.25).
// baseline distills the newest commit's entries into a standalone store for
// checking in.
//
// Exit codes: 0 ok, 2 usage, 3 unreadable/perf-less run input, 4 malformed
// history store, 5 gate found a regression.
#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tcr/obs/json.hpp"
#include "tcr/perf/history.hpp"
#include "tcr/report/schema.hpp"

namespace {

using namespace tcr;

int usage() {
  std::cerr
      << "usage: tcr-perf append --history FILE --commit SHA [--google-benchmark FILE]\n"
         "                [run.json ...]\n"
         "       tcr-perf report --history FILE [--out FILE]\n"
         "       tcr-perf gate --history FILE [--against COMMIT | --baseline FILE]\n"
         "                [--threshold QUANTITY=RATIO ...]\n"
         "       tcr-perf baseline --history FILE --out FILE\n";
  return 2;
}

std::string fmt_value(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

std::string fmt_ratio(double v) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << v << "x";
  return os.str();
}

/// Distinct commits in first-appearance (trajectory) order.
std::vector<std::string> commit_order(const std::vector<perf::HistoryEntry>& entries) {
  std::vector<std::string> order;
  for (const perf::HistoryEntry& e : entries) {
    if (std::find(order.begin(), order.end(), e.commit) == order.end()) {
      order.push_back(e.commit);
    }
  }
  return order;
}

std::vector<perf::KeyStats> stats_for_commit(const std::vector<perf::HistoryEntry>& entries,
                                             const std::string& commit) {
  std::vector<perf::HistoryEntry> filtered;
  for (const perf::HistoryEntry& e : entries) {
    if (e.commit == commit) filtered.push_back(e);
  }
  return perf::median_by_key(filtered);
}

int run_append(const std::string& history_path, const std::string& commit,
               const std::string& google_benchmark, const std::vector<std::string>& runs) {
  if (history_path.empty() || (runs.empty() && google_benchmark.empty())) return usage();
  std::vector<perf::HistoryEntry> entries;
  std::string error;
  for (const std::string& path : runs) {
    report::BenchRun run;
    if (!report::parse_run_file(path, &run, &error)) {
      std::cerr << "error: " << error << "\n";
      return 3;
    }
    perf::HistoryEntry e;
    if (!report::entry_from_run(run, &e, &error)) {
      std::cerr << "error: " << path << ": " << error << "\n";
      return 3;
    }
    entries.push_back(std::move(e));
  }
  if (!google_benchmark.empty()) {
    obs::Json doc;
    if (!obs::parse_json_file(google_benchmark, &doc, &error)) {
      std::cerr << "error: " << google_benchmark << ": " << error << "\n";
      return 3;
    }
    if (!perf::entries_from_google_benchmark(doc, &entries, &error)) {
      std::cerr << "error: " << google_benchmark << ": " << error << "\n";
      return 3;
    }
  }
  const std::int64_t now = static_cast<std::int64_t>(std::time(nullptr));
  for (perf::HistoryEntry& e : entries) {
    e.commit = commit;
    e.recorded_unix = now;
  }
  if (!perf::append_history(history_path, entries, &error)) {
    std::cerr << "error: " << error << "\n";
    return 4;
  }
  std::cout << "appended " << entries.size() << " entr" << (entries.size() == 1 ? "y" : "ies")
            << " for commit " << (commit.empty() ? "(none)" : commit) << " to " << history_path
            << "\n";
  return 0;
}

int run_report(const std::string& history_path, const std::string& out_path) {
  if (history_path.empty()) return usage();
  std::vector<perf::HistoryEntry> entries;
  std::string error;
  if (!perf::load_history(history_path, &entries, &error)) {
    std::cerr << "error: " << error << "\n";
    return 4;
  }
  const std::string md = perf::markdown_report(entries);
  if (out_path.empty()) {
    std::cout << md;
    return 0;
  }
  std::ofstream out(out_path, std::ios::trunc);
  out << md;
  if (!out.good()) {
    std::cerr << "error: cannot write '" << out_path << "'\n";
    return 4;
  }
  std::cout << "wrote perf trajectory report (" << entries.size() << " entries) to " << out_path
            << "\n";
  return 0;
}

int run_gate(const std::string& history_path, const std::string& against,
             const std::string& baseline_path, const perf::GatePolicy& policy) {
  if (history_path.empty()) return usage();
  std::vector<perf::HistoryEntry> entries;
  std::string error;
  if (!perf::load_history(history_path, &entries, &error)) {
    std::cerr << "error: " << error << "\n";
    return 4;
  }
  if (entries.empty()) {
    std::cerr << "error: " << history_path << " holds no entries to gate\n";
    return 4;
  }
  const std::vector<std::string> commits = commit_order(entries);
  const std::string candidate_commit = commits.back();
  const std::vector<perf::KeyStats> candidate = stats_for_commit(entries, candidate_commit);

  std::vector<perf::KeyStats> baseline;
  std::string baseline_label;
  if (!baseline_path.empty()) {
    std::vector<perf::HistoryEntry> base_entries;
    if (!perf::load_history(baseline_path, &base_entries, &error)) {
      std::cerr << "error: " << error << "\n";
      return 4;
    }
    baseline = perf::median_by_key(base_entries);
    baseline_label = baseline_path;
  } else if (!against.empty()) {
    baseline = stats_for_commit(entries, against);
    if (baseline.empty()) {
      std::cerr << "error: no entries for baseline commit '" << against << "' in "
                << history_path << "\n";
      return 4;
    }
    baseline_label = "commit " + against;
  } else {
    if (commits.size() < 2) {
      std::cout << "gate: only one commit (" << candidate_commit
                << ") in history; nothing to compare against\n";
      return 0;
    }
    baseline_label = "commit " + commits[commits.size() - 2];
    baseline = stats_for_commit(entries, commits[commits.size() - 2]);
  }

  const std::vector<perf::GateFinding> findings = perf::gate(baseline, candidate, policy);
  int passed = 0, skipped = 0, missing = 0, regressed = 0;
  for (const perf::GateFinding& f : findings) {
    switch (f.verdict) {
      case perf::GateFinding::Verdict::Regressed:
        ++regressed;
        std::cout << "PERF REGRESSION " << f.bench << "/" << f.config << " " << f.quantity
                  << ": baseline " << fmt_value(f.baseline) << " candidate "
                  << fmt_value(f.candidate) << " (" << fmt_ratio(f.ratio) << " > "
                  << fmt_ratio(f.threshold) << ")\n";
        break;
      case perf::GateFinding::Verdict::Pass:
        ++passed;
        break;
      case perf::GateFinding::Verdict::SkippedMachine:
      case perf::GateFinding::Verdict::SkippedFloor:
        ++skipped;
        break;
      case perf::GateFinding::Verdict::Missing:
        ++missing;
        break;
    }
  }
  std::cout << "gate: candidate " << candidate_commit << " vs " << baseline_label << ": "
            << passed << " passed, " << regressed << " regressed, " << skipped
            << " skipped (noise floor / different machine), " << missing << " unmatched\n";
  return regressed > 0 ? 5 : 0;
}

int run_baseline(const std::string& history_path, const std::string& out_path) {
  if (history_path.empty() || out_path.empty()) return usage();
  std::vector<perf::HistoryEntry> entries;
  std::string error;
  if (!perf::load_history(history_path, &entries, &error)) {
    std::cerr << "error: " << error << "\n";
    return 4;
  }
  if (entries.empty()) {
    std::cerr << "error: " << history_path << " holds no entries\n";
    return 4;
  }
  const std::string newest = commit_order(entries).back();
  std::vector<perf::HistoryEntry> distilled;
  for (const perf::HistoryEntry& e : entries) {
    if (e.commit == newest) distilled.push_back(e);
  }
  {
    std::ofstream wipe(out_path, std::ios::trunc);  // baseline files are replaced, not grown
    if (!wipe) {
      std::cerr << "error: cannot write '" << out_path << "'\n";
      return 4;
    }
  }
  if (!perf::append_history(out_path, distilled, &error)) {
    std::cerr << "error: " << error << "\n";
    return 4;
  }
  std::cout << "distilled " << distilled.size() << " entries of commit " << newest << " into "
            << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // Hand-rolled parsing like tcr-trace: subcommand + flags + positional run
  // files, which tcr::Cli (flag-only) would silently drop.
  std::string history, commit, google_benchmark, against, baseline, out;
  std::vector<std::string> runs;
  perf::GatePolicy policy;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* slot) {
      if (i + 1 >= argc) return false;
      *slot = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--history") {
      if (!value(&history)) return usage();
    } else if (arg == "--commit") {
      if (!value(&commit)) return usage();
    } else if (arg == "--google-benchmark") {
      if (!value(&google_benchmark)) return usage();
    } else if (arg == "--against") {
      if (!value(&against)) return usage();
    } else if (arg == "--baseline") {
      if (!value(&baseline)) return usage();
    } else if (arg == "--out") {
      if (!value(&out)) return usage();
    } else if (arg == "--threshold") {
      if (!value(&v)) return usage();
      const std::size_t eq = v.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "error: --threshold expects QUANTITY=RATIO, got '" << v << "'\n";
        return usage();
      }
      policy.per_quantity[v.substr(0, eq)] = std::atof(v.c_str() + eq + 1);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      return usage();
    } else {
      runs.push_back(arg);
    }
  }

  if (command == "append") return run_append(history, commit, google_benchmark, runs);
  if (command == "report") return run_report(history, out);
  if (command == "gate") {
    if (!against.empty() && !baseline.empty()) {
      std::cerr << "error: --against and --baseline are mutually exclusive\n";
      return usage();
    }
    return run_gate(history, against, baseline, policy);
  }
  if (command == "baseline") return run_baseline(history, out);
  std::cerr << "error: unknown command '" << command << "'\n";
  return usage();
}
