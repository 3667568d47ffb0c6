// The benchmark-history store and regression detector behind tools/
// tcr_perf.cpp, split out (like trace/analysis) so the logic is
// unit-testable.
//
// BENCH_history.json is an append-only JSON-lines store: one entry per
// ingested run, keyed by (bench, config, commit):
//
//   {"schema_version":1,"kind":"perf_entry","bench":"fig1_wc_tradeoff",
//    "config":"chains=0,k=4,points=5,...","commit":"a1b2c3d4e5f6",
//    "source":"rusage","recorded_unix":1754640000,
//    "provenance":{"git_sha":...,"compiler":...,"cpu":...},
//    "quantities":{"perf.cpu_ns":1.2e9,"perf.alloc_bytes":3.4e8,...}}
//
// Repeats are simply multiple entries under the same key; every consumer
// aggregates them with the median, so one descheduled run cannot fake a
// regression (noise model: median-of-N + per-quantity ratio thresholds +
// absolute floors + machine-sensitivity classes, all in GatePolicy).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tcr/obs/json.hpp"

namespace tcr::perf {

inline constexpr int kHistorySchemaVersion = 1;

/// One history entry: the per-run totals of every perf quantity.
struct HistoryEntry {
  std::string bench;
  std::string config;  ///< canonical_config() of the run's resolved params
  std::string commit;
  std::string source;  ///< backend that measured ("perf_event"|"rusage"|"")
  std::int64_t recorded_unix = 0;  ///< seconds since epoch; 0 = unknown
  obs::Json provenance = obs::Json::object();
  std::map<std::string, double> quantities;  ///< name -> value ("perf.cpu_ns", ...)
};

/// Canonical config key of a run's resolved CLI params: "k=4,points=5,..."
/// with keys sorted, so the same parameters always map to the same history
/// key regardless of flag order.
std::string canonical_config(const obs::Json& params);

/// Entries from a google-benchmark --benchmark_format=json document: one
/// entry per benchmark name (bench "micro_kernels", config = the benchmark
/// name), quantities perf.real_ns / perf.cpu_ns taken as the minimum across
/// `iteration` runs — the standard noise-robust statistic for
/// microbenchmarks.
bool entries_from_google_benchmark(const obs::Json& doc, std::vector<HistoryEntry>* out,
                                   std::string* error);

/// Load a history file (JSON-lines of perf_entry records, file order
/// preserved — append order is the trajectory). A missing file yields an
/// empty history and true when `allow_missing`.
bool load_history(const std::string& path, std::vector<HistoryEntry>* out, std::string* error,
                  bool allow_missing = false);

/// Append entries to the store (append-only: existing lines are never
/// rewritten).
bool append_history(const std::string& path, const std::vector<HistoryEntry>& entries,
                    std::string* error);

// ---------------------------------------------------------------------------
// Aggregation and gating
// ---------------------------------------------------------------------------

/// Median over repeats of one (bench, config, commit) key.
struct KeyStats {
  std::string bench, config, commit;
  int repeats = 0;
  obs::Json provenance = obs::Json::object();  ///< from the last repeat
  std::map<std::string, double> median;
};

/// Group entries by (bench, config, commit) and take per-quantity medians.
/// Keys come back in first-appearance order (history order = trajectory).
std::vector<KeyStats> median_by_key(const std::vector<HistoryEntry>& entries);

/// Noise model of the gate. A candidate median regresses a quantity when
///   candidate > threshold(quantity) * baseline  AND  baseline >= floor,
/// where the threshold comes from the quantity's class (time-like counters
/// are tighter than cache/fault counts, allocation counts are near-
/// deterministic) and the floor suppresses ratios of tiny, noise-dominated
/// baselines. Time-, cache- and RSS-like quantities are additionally
/// machine-sensitive: they are skipped (not gated) when the two sides'
/// provenance shows a different CPU model or compiler, because a cycle
/// count measured on another machine is not a baseline, it is a different
/// experiment. Allocation counts only require the same compiler.
struct GatePolicy {
  double time_ratio = 1.40;   ///< wall/cpu/cycles/instructions/real
  double noisy_ratio = 2.00;  ///< cache/branch misses, faults, ctx switches
  double alloc_ratio = 1.10;  ///< alloc_count / alloc_bytes
  double rss_ratio = 1.30;    ///< max_rss_kb
  double time_floor_ns = 1e6;  ///< ignore sub-millisecond time baselines
  double count_floor = 1000;   ///< ignore tiny count baselines
  std::map<std::string, double> per_quantity;  ///< name -> ratio overrides
};

/// Quantity classes for thresholds and machine-sensitivity.
enum class QuantityClass { Time, Noisy, Alloc, Rss };
QuantityClass classify_quantity(const std::string& name);
double threshold_for(const GatePolicy& policy, const std::string& name);

struct GateFinding {
  enum class Verdict {
    Pass,
    Regressed,
    SkippedMachine,  ///< provenance mismatch (cpu/compiler) for this class
    SkippedFloor,    ///< baseline below the noise floor
    Missing,         ///< quantity absent on one side
  };
  std::string bench, config, quantity;
  double baseline = 0.0;
  double candidate = 0.0;
  double ratio = 0.0;  ///< candidate / baseline (0 when not comparable)
  double threshold = 0.0;
  Verdict verdict = Verdict::Pass;
};

/// Compare candidate medians against baseline medians with matching
/// (bench, config) keys. Candidate keys with no baseline produce a single
/// Missing finding (new benches are not regressions). Findings are ordered
/// worst-first: regressions, then passes/skips.
std::vector<GateFinding> gate(const std::vector<KeyStats>& baseline,
                              const std::vector<KeyStats>& candidate,
                              const GatePolicy& policy = {});

/// True when any finding is a regression.
bool any_regression(const std::vector<GateFinding>& findings);

/// Markdown perf-trajectory report: one section per (bench, config), one
/// row per commit in history order with median quantities and the ratio to
/// the previous commit's median.
std::string markdown_report(const std::vector<HistoryEntry>& entries);

}  // namespace tcr::perf
