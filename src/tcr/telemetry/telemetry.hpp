// tcr::telemetry — cooperative in-flight heartbeats for long runs.
//
// Every post-hoc surface we have (obs snapshots, trace files, perf records,
// repro reports) answers "what happened" after a run exits. This layer
// answers "what is happening": while a bench, sweep, or simulation runs it
// periodically appends **heartbeat records** — obs registry deltas, guard
// budget state (deadline remaining, iterations charged, peak RSS), sweep
// progress (points done/total, warm-start adoption), simulator progress
// (epoch, cycle, flit counts), solver progress (iterations, objective) —
// into an append-only stream a separate process (`tcr-top`) can tail live.
//
// The heartbeat is a sink of the trace spine, not a second set of call
// sites. Instrumented code emits each progress fact once, as a trace::Span
// or a trace::counter; with the obs::kHeartbeat sink bit set:
//   * a beat's `phase` is the innermost span open on the thread that emits
//     it (a beat outside every span, such as stop()'s final beat, repeats
//     the previous phase);
//   * every counter sample updates a latest-value-per-track table (see
//     tracks()), and the beat reads its blocks from it: `progress` from
//     sweep.total/sweep.done/sweep.warm_adopted, `sim` from sim.epoch/
//     sim.cycle/sim.injected/sim.ejected, `solver` from lp.iteration/
//     lp.objective. A block appears once its first track has a sample.
//
// Stream format: the `tcr::guard` journal framing ([u32 len][u32 crc32]
// [payload], 8-byte "TCRJNL01" magic, fsync per append) so a kill at any
// point leaves a valid prefix plus at most one torn record; payloads are
// single-line JSON objects (obs::Json), schema "tcr-heartbeat-v1".
// telemetry/stream.hpp reads it back incrementally with the same torn-tail
// tolerance.
//
// Determinism contract: sampling is *cooperative* — instrumented code calls
// poll() at sites it already passes deterministically (the simplex
// iteration safepoint, sweep point boundaries, the simulator's 256-cycle
// safepoint). A poll only *reads* run state and writes to the stream;
// nothing downstream of the numerics ever reads telemetry state, so
// --heartbeat cannot perturb bitwise results — it can only change wall
// time. Pinned by Telemetry.SweepHeartbeatBitwiseDeterministic and the
// heartbeat column of test_sim_parallel's determinism matrix.
//
// Disabled cost: poll() is one relaxed load of the obs sink mask (pinned by
// BM_TelemetryPollDisabled under the CI overhead-ratio guard). When
// enabled, at most one caller per interval takes the slow path (a CAS on
// the next-emit deadline elects the emitter).
//
// Thread-safety: all entry points may be called concurrently from sweep
// pool workers; emission serializes on an internal mutex and the journal
// writer's own lock, the track table on its own mutex. start()/stop() are
// not safe to race with each other.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "tcr/obs/registry.hpp"

namespace tcr::guard {
class CancelToken;
}

namespace tcr::telemetry {

/// One heartbeat session per process (mirrors the obs::Registry and
/// SignalGuard singletons benches already rely on).
struct HeartbeatConfig {
  std::string path;               ///< stream file; recreated (not appended)
  /// Minimum seconds between heartbeat records; 0 emits at every
  /// cooperative poll site (maximal pressure — the determinism tests).
  double interval_seconds = 0.5;
  std::string bench;              ///< label stamped into the meta record
  /// Optional run token: heartbeats report its budget state, and a final
  /// heartbeat carries its stop reason. Must outlive the session.
  const guard::CancelToken* token = nullptr;
};

/// Open the stream, write the meta record, clear the track table, and set
/// the obs::kHeartbeat sink bit. Fails (false + *error) when a session is
/// already active or the file cannot be created.
bool start(const HeartbeatConfig& cfg, std::string* error);

/// Emit a final heartbeat (marked "final": true), close the stream, and
/// clear the sink bit. No-op when inactive.
void stop();

/// Is a session active? (Same as enabled().)
bool active();

/// Force-emit a heartbeat now, ignoring the interval pacing. Used by stop()
/// and by tests that cannot wait out an interval. No-op when disabled.
void heartbeat_now();

/// Latest value of every counter track sampled since start() while the
/// session was live — what heartbeats read. A trace-only run leaves it
/// untouched.
std::map<std::string, double, std::less<>> tracks();

namespace detail {
void poll_slow();
/// trace::counter's heartbeat sink: record `value` as the track's latest.
void note_track(std::string_view track, double value);
}  // namespace detail

/// Is a heartbeat session live (the obs::kHeartbeat sink bit)? One relaxed
/// atomic load.
inline bool enabled() noexcept { return (obs::sinks() & obs::kHeartbeat) != 0; }

/// Cooperative sampling site: emits a heartbeat iff the interval has
/// elapsed since the last one (one thread wins the emission; the rest
/// return after a clock read and a failed CAS).
inline void poll() {
  if (!enabled()) return;
  detail::poll_slow();
}

}  // namespace tcr::telemetry
