// Trace-file analysis: the library behind tools/tcr_trace.cpp, split out so
// the diagnosis logic is unit-testable (tests/test_trace.cpp) and reusable.
//
// Consumes the Chrome trace-event JSON written by trace/export.hpp (parsed
// back with obs::parse_json_file) and produces:
//   * a self-time flame summary per span name (total, self = total minus
//     child span time, count, max);
//   * the top-k slowest individual spans;
//   * per-LP-solve convergence reports from the lp.* counter tracks
//     (iterations to optimal, stall windows where the sampled objective
//     improvement stays below a tolerance, refactorization cadence);
//   * the per-point sweep table (sweep.point spans with their warm-start
//     adoption attributes);
//   * span-by-span diffs of two traces (warm vs cold sweeps).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tcr/obs/json.hpp"

namespace tcr::trace {

/// One span read back from a trace file.
struct SpanRec {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  /// Attributes from args (everything except span_id/parent), insertion
  /// order preserved.
  obs::Json args = obs::Json::object();
};

/// One counter sample read back from a trace file.
struct CounterRec {
  std::string name;
  std::uint64_t parent = 0;  // span that was live when the sample was taken
  std::uint32_t tid = 0;
  std::int64_t t_ns = 0;
  double value = 0.0;
};

/// Parsed trace: spans and counter samples in file order.
struct Trace {
  std::vector<SpanRec> spans;
  std::vector<CounterRec> counters;
  std::int64_t dropped_events = 0;
};

/// Decode a parsed Chrome trace-event document. Returns false (with *error)
/// when `doc` is not an object with a traceEvents array of well-formed
/// events.
bool load_trace(const obs::Json& doc, Trace* out, std::string* error);

/// Read + parse + decode a trace file in one call.
bool load_trace_file(const std::string& path, Trace* out, std::string* error);

/// Per-name aggregate over all spans of that name.
struct NameAgg {
  long count = 0;
  std::int64_t total_ns = 0;  // sum of span durations
  std::int64_t self_ns = 0;   // total minus time spent in child spans
  std::int64_t max_ns = 0;    // slowest single span
};

/// Flame summary: per-name totals with self time computed from the parent
/// links (children subtract from their parent's self time regardless of
/// which thread they ran on).
std::map<std::string, NameAgg> aggregate(const Trace& trace);

/// The k slowest individual spans, longest first.
std::vector<SpanRec> slowest_spans(const Trace& trace, std::size_t k);

/// Convergence diagnosis of one lp.solve span, reconstructed from the
/// sampled lp.* counter tracks attached (via parent links) to it.
struct SolveReport {
  std::uint64_t span_id = 0;
  std::int64_t dur_ns = 0;
  /// Adoption attr of the solve span, or of the design.solve span directly
  /// around it (which labels a crash start), when present.
  std::string warm_start;
  std::string status;      // final status attr, when present
  long iterations = 0;     // last sampled lp.iteration value
  int samples = 0;         // telemetry samples seen
  double first_objective = 0.0;
  double last_objective = 0.0;
  /// Sample intervals whose relative objective improvement stayed below the
  /// stall tolerance, and the longest consecutive run of them (in sampled
  /// iterations).
  int stall_windows = 0;
  long longest_stall_iters = 0;
  long refactors = 0;  // lp.refactor child spans of this solve
  double final_primal_infeas = 0.0;
  double final_dual_infeas = 0.0;
};

/// One report per lp.solve span, in trace order. `stall_tol` is the
/// relative objective-improvement threshold below which a sample interval
/// counts as stalled.
std::vector<SolveReport> convergence_reports(const Trace& trace, double stall_tol = 1e-9);

/// Sweep-point rows: every span named `sweep.point`, trace order.
std::vector<SpanRec> sweep_points(const Trace& trace);

/// Span-by-span comparison of two traces (e.g. a warm and a cold sweep).
struct DiffRow {
  std::string name;
  std::optional<NameAgg> a;  // absent when the name only appears in b
  std::optional<NameAgg> b;
};

/// Union of both traces' span names with each side's aggregate, sorted by
/// the larger total time, descending.
std::vector<DiffRow> diff(const Trace& a, const Trace& b);

/// Machine-readable flame/self-time summary (tcr-trace --json): an object
///   {"spans": N, "counters": N, "dropped": N,
///    "flame": [{"span","count","total_ns","self_ns","max_ns","avg_ns"},...]}
/// with flame rows sorted by self time descending (name ascending on ties),
/// matching the order of the human-readable table.
obs::Json flame_json(const Trace& trace);

}  // namespace tcr::trace
