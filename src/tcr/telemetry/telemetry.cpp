#include "tcr/telemetry/telemetry.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <cstdio>
#include <map>
#include <mutex>

#include "tcr/guard/guard.hpp"
#include "tcr/guard/journal.hpp"
#include "tcr/obs/json.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/perf/perf.hpp"
#include "tcr/trace/tracer.hpp"

namespace tcr::telemetry {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t wall_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// All session state. Everything is touched under `mu` (emission,
/// start/stop) except next_emit_ns, the lock-free emitter election, and the
/// track table, which has its own lock because trace::counter writes it
/// from hot paths — see the thread-safety note in the header.
struct Session {
  std::mutex mu;
  guard::JournalWriter writer;
  std::string bench;
  double interval_seconds = 0.5;
  std::int64_t interval_ns = 0;
  std::int64_t start_steady_ns = 0;
  long seq = 0;
  const guard::CancelToken* token = nullptr;
  std::string phase;  // of the last record; repeated outside every span
  std::map<std::string, std::int64_t> last_counters;
  std::map<std::string, double> last_gauges;
  std::atomic<std::int64_t> next_emit_ns{0};

  std::mutex tracks_mu;
  std::map<std::string, double, std::less<>> tracks;
};

Session& session() {
  static Session s;
  return s;
}

/// Counter delta since the previous heartbeat. The registry is reset
/// between sweep points (bench JsonOutput), so a current value below the
/// last one means "reset happened" — the post-reset value is the delta.
std::int64_t counter_delta(std::int64_t cur, std::int64_t last) {
  return cur >= last ? cur - last : cur;
}

/// The record's phase: the innermost span open on the calling thread, or
/// the previous record's phase outside every span. Caller holds s.mu.
const std::string& current_phase(Session& s) {
  const std::string_view open = trace::current_span_name();
  if (!open.empty()) s.phase.assign(open.data(), open.size());
  return s.phase;
}

/// The `progress`, `sim` and `solver` blocks, read from the latest counter
/// track values. A block appears once its first track has been sampled.
void add_track_blocks(Session& s, obs::Json* rec) {
  std::lock_guard<std::mutex> lock(s.tracks_mu);
  const auto value = [&](std::string_view track) {
    const auto it = s.tracks.find(track);
    return it == s.tracks.end() ? 0.0 : it->second;
  };
  const auto count = [&](std::string_view track) {
    return static_cast<std::int64_t>(value(track));
  };
  if (s.tracks.count("sweep.total") != 0) {
    obs::Json p = obs::Json::object();
    p.set("done", count("sweep.done"));
    p.set("total", count("sweep.total"));
    p.set("warm_adopted", count("sweep.warm_adopted"));
    rec->set("progress", std::move(p));
  }
  if (s.tracks.count("sim.epoch") != 0) {
    obs::Json sim = obs::Json::object();
    sim.set("epoch", count("sim.epoch"));
    sim.set("cycle", count("sim.cycle"));
    sim.set("injected", count("sim.injected"));
    sim.set("ejected", count("sim.ejected"));
    rec->set("sim", std::move(sim));
  }
  if (s.tracks.count("lp.iteration") != 0) {
    obs::Json sol = obs::Json::object();
    sol.set("iterations", count("lp.iteration"));
    sol.set("objective", value("lp.objective"));
    rec->set("solver", std::move(sol));
  }
}

/// Build one heartbeat payload. Caller holds s.mu.
obs::Json build_heartbeat(Session& s, bool final_beat) {
  obs::Json rec = obs::Json::object();
  rec.set("kind", "heartbeat");
  rec.set("seq", ++s.seq);
  rec.set("uptime_ms", (steady_now_ns() - s.start_steady_ns) / 1'000'000);
  rec.set("phase", current_phase(s));
  if (final_beat) rec.set("final", true);

  obs::Json g = obs::Json::object();
  const guard::CancelToken* token = s.token;
  g.set("cancelled", token != nullptr && token->cancelled());
  g.set("stop_reason",
        token != nullptr ? std::string(guard::to_string(token->reason())) : std::string("none"));
  g.set("iterations", token != nullptr ? token->iterations_used() : 0);
  // NaN serializes as null: "no deadline armed".
  g.set("deadline_remaining_s",
        token != nullptr ? token->deadline_remaining_seconds()
                         : std::numeric_limits<double>::quiet_NaN());
  g.set("rss_kb", perf::process_peak_rss_kb());
  rec.set("guard", std::move(g));

  add_track_blocks(s, &rec);

  // Obs registry deltas: counters as per-interval deltas (reset-aware),
  // gauges as current values; both only when changed since the last beat,
  // to keep records small. Timers/histograms ride in the benches' post-hoc
  // --json snapshots instead.
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  obs::Json counters = obs::Json::object(), gauges = obs::Json::object();
  for (const auto& [name, cur] : snap.counters) {
    auto it = s.last_counters.find(name);
    const std::int64_t last = it == s.last_counters.end() ? 0 : it->second;
    const std::int64_t delta = counter_delta(cur, last);
    if (delta != 0) counters.set(name, delta);
    s.last_counters[name] = cur;
  }
  for (const auto& [name, cur] : snap.gauges) {
    auto it = s.last_gauges.find(name);
    const bool changed = it == s.last_gauges.end() ? cur != 0.0 : cur != it->second;
    if (changed) gauges.set(name, cur);
    s.last_gauges[name] = cur;
  }
  if (counters.size() > 0) rec.set("counters", std::move(counters));
  if (gauges.size() > 0) rec.set("gauges", std::move(gauges));
  return rec;
}

/// Serialize and append under the journal's crash-safe framing. Caller
/// holds s.mu.
void emit(Session& s, const obs::Json& rec) {
  if (!s.writer.is_open()) return;
  s.writer.append(rec.dump());
}

void emit_heartbeat_locked(Session& s, bool final_beat) {
  emit(s, build_heartbeat(s, final_beat));
}

}  // namespace

namespace detail {

void poll_slow() {
  Session& s = session();
  const std::int64_t now = steady_now_ns();
  std::int64_t next = s.next_emit_ns.load(std::memory_order_relaxed);
  if (now < next) return;
  // Elect one emitter: whoever advances the deadline writes the beat.
  if (!s.next_emit_ns.compare_exchange_strong(next, now + s.interval_ns,
                                              std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(s.mu);
  if (!enabled()) return;  // stop() raced us
  emit_heartbeat_locked(s, /*final_beat=*/false);
}

void note_track(std::string_view track, double value) {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.tracks_mu);
  const auto it = s.tracks.find(track);
  if (it != s.tracks.end()) {
    it->second = value;
  } else {
    s.tracks.emplace(std::string(track), value);
  }
}

}  // namespace detail

bool start(const HeartbeatConfig& cfg, std::string* error) {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (enabled()) {
    if (error != nullptr) *error = "telemetry session already active";
    return false;
  }
  if (cfg.path.empty()) {
    if (error != nullptr) *error = "heartbeat path is empty";
    return false;
  }
  // One stream per run: drop any stale file so the meta record is always
  // the first record (JournalWriter::open would otherwise append).
  std::remove(cfg.path.c_str());
  if (!s.writer.open(cfg.path, error)) return false;

  s.bench = cfg.bench;
  s.interval_seconds = cfg.interval_seconds < 0.0 ? 0.0 : cfg.interval_seconds;
  s.interval_ns = static_cast<std::int64_t>(s.interval_seconds * 1e9);
  s.start_steady_ns = steady_now_ns();
  s.seq = 0;
  s.last_counters.clear();
  s.last_gauges.clear();
  s.token = cfg.token;
  s.phase.clear();
  s.next_emit_ns.store(s.start_steady_ns + s.interval_ns, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> tracks_lock(s.tracks_mu);
    s.tracks.clear();
  }

  obs::Json meta = obs::Json::object();
  meta.set("kind", "meta");
  meta.set("schema", "tcr-heartbeat-v1");
  meta.set("bench", s.bench);
  meta.set("pid", static_cast<std::int64_t>(::getpid()));
  meta.set("interval_seconds", s.interval_seconds);
  meta.set("start_unix_ms", wall_now_ms());
  emit(s, meta);
  if (!s.writer.ok()) {
    if (error != nullptr) *error = "failed to write heartbeat meta record";
    s.writer.close();
    return false;
  }

  obs::set_sink(obs::kHeartbeat, true);
  return true;
}

void stop() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!enabled()) return;
  emit_heartbeat_locked(s, /*final_beat=*/true);
  obs::set_sink(obs::kHeartbeat, false);
  s.writer.close();
  s.token = nullptr;
}

bool active() { return enabled(); }

void heartbeat_now() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!enabled()) return;
  emit_heartbeat_locked(s, /*final_beat=*/false);
}

std::map<std::string, double, std::less<>> tracks() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.tracks_mu);
  return s.tracks;
}

}  // namespace tcr::telemetry
