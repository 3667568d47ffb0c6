// Heartbeat-stream interpretation for `tcr-top`: folds parsed records into
// a RunState, derives rates (iterations/sec, sweep-point throughput → ETA,
// RSS slope), and flags anomalies — an iteration-rate collapse vs. the
// trailing window, unbounded RSS growth, and convergence stalls (the same
// relative-improvement criterion as tcr::trace's stall windows, applied to
// the solver objective carried by heartbeats). Kept tool-independent so
// tests can drive it without a subprocess.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tcr/obs/json.hpp"

namespace tcr::telemetry {

/// One decoded heartbeat record.
struct HeartbeatSample {
  long seq = 0;
  double uptime_s = 0.0;
  std::string phase;
  bool final_beat = false;

  bool cancelled = false;
  std::string stop_reason = "none";
  long guard_iterations = 0;
  double deadline_remaining_s = std::numeric_limits<double>::quiet_NaN();
  std::int64_t rss_kb = 0;

  bool has_progress = false;
  long done = 0, total = 0, warm_adopted = 0;

  bool has_sim = false;
  long epoch = 0, cycle = 0, injected = 0, ejected = 0;

  bool has_solver = false;
  long solver_iterations = 0;
  double objective = std::numeric_limits<double>::quiet_NaN();

  /// Delta of the lp.simplex.iterations obs counter this interval (0 when
  /// absent) — the iteration-rate source when no run token is armed.
  std::int64_t simplex_iters_delta = 0;
};

/// Everything known about a run from the records read so far.
struct RunState {
  bool has_meta = false;
  std::string bench;
  std::string schema;
  long pid = 0;
  double interval_seconds = 0.0;
  std::int64_t start_unix_ms = 0;

  std::vector<HeartbeatSample> beats;
  bool finished = false;  ///< saw a heartbeat marked "final"

  /// Fold one parsed stream record; unknown kinds are ignored (forward
  /// compatibility). Returns false on a structurally unusable record.
  bool apply(const obs::Json& record, std::string* error);

  const HeartbeatSample* last_beat() const {
    return beats.empty() ? nullptr : &beats.back();
  }

  /// Cumulative simplex iterations at beat `i`: the guard tally when a
  /// token is armed, else the running sum of obs counter deltas.
  std::int64_t cumulative_iterations(std::size_t i) const;

  /// Mean iterations/sec across the last `window` beat intervals
  /// (NaN with fewer than two beats or no elapsed time).
  double iterations_per_sec(int window = 5) const;

  /// Remaining-work estimate from sweep-point throughput: (total - done) /
  /// (done / uptime). NaN before the first completed point.
  double eta_seconds() const;

  /// Peak-RSS growth across the last `window` beat intervals, in kB/s.
  double rss_slope_kb_per_s(int window = 5) const;
};

struct AnomalyOptions {
  int trailing_window = 5;      ///< beats in the reference window
  double collapse_ratio = 0.25; ///< recent rate below this × trailing ⇒ warn
  double rss_slope_warn_kb_per_s = 65536.0;  ///< sustained growth ⇒ warn
  double stall_tol = 1e-9;  ///< relative objective improvement (trace default)
  int stall_beats = 3;      ///< consecutive stalled beats ⇒ warn
};

struct Anomaly {
  std::string kind;     ///< "iteration_rate_collapse" | "rss_growth" | "convergence_stall"
  std::string message;  ///< human-readable diagnosis
};

std::vector<Anomaly> detect_anomalies(const RunState& state,
                                      const AnomalyOptions& opts = {});

/// The live progress table `tcr-top` prints: run identity, phase, progress
/// done/total with ETA, iteration rate, guard budget state, sim state and
/// anomalies. `truncated_tail` appends the crash note.
std::string render_table(const RunState& state, const std::vector<Anomaly>& anomalies,
                         bool truncated_tail);

/// Machine-readable equivalent (--json): one object with the same facts.
obs::Json state_json(const RunState& state, const std::vector<Anomaly>& anomalies,
                     bool truncated_tail);

}  // namespace tcr::telemetry
