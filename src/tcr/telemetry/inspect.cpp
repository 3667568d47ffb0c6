#include "tcr/telemetry/inspect.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tcr/util/table.hpp"

namespace tcr::telemetry {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double num_or(const obs::Json* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::int64_t int_or(const obs::Json* v, std::int64_t fallback) {
  return v != nullptr && v->is_number() ? v->as_int() : fallback;
}

std::string str_or(const obs::Json* v, const std::string& fallback) {
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

std::string fmt_seconds(double s) {
  if (!std::isfinite(s)) return "-";
  std::string sign;
  if (s < 0) {
    sign = "-";
    s = -s;
  }
  if (s < 120.0) return sign + TextTable::num(s, 1) + " s";
  if (s < 7200.0) return sign + TextTable::num(s / 60.0, 1) + " min";
  return sign + TextTable::num(s / 3600.0, 1) + " h";
}

std::string fmt_rate(double r) {
  if (!std::isfinite(r)) return "-";
  if (r >= 1e6) return TextTable::num(r / 1e6, 2) + "M/s";
  if (r >= 1e3) return TextTable::num(r / 1e3, 1) + "k/s";
  return TextTable::num(r, 1) + "/s";
}

std::string fmt_rss(std::int64_t kb) {
  if (kb <= 0) return "-";
  if (kb < 10 * 1024) return std::to_string(kb) + " kB";
  return TextTable::num(static_cast<double>(kb) / 1024.0, 1) + " MB";
}

}  // namespace

bool RunState::apply(const obs::Json& record, std::string* error) {
  if (!record.is_object()) {
    if (error != nullptr) *error = "stream record is not a JSON object";
    return false;
  }
  const std::string kind = str_or(record.find("kind"), "");
  if (kind == "meta") {
    has_meta = true;
    bench = str_or(record.find("bench"), "");
    schema = str_or(record.find("schema"), "");
    pid = static_cast<long>(int_or(record.find("pid"), 0));
    interval_seconds = num_or(record.find("interval_seconds"), 0.0);
    start_unix_ms = int_or(record.find("start_unix_ms"), 0);
    return true;
  }
  if (kind == "heartbeat") {
    HeartbeatSample b;
    b.seq = static_cast<long>(int_or(record.find("seq"), 0));
    b.uptime_s = 1e-3 * static_cast<double>(int_or(record.find("uptime_ms"), 0));
    b.phase = str_or(record.find("phase"), "");
    b.final_beat = record.find("final") != nullptr && record.find("final")->as_bool();
    if (const obs::Json* g = record.find("guard"); g != nullptr && g->is_object()) {
      b.cancelled = g->find("cancelled") != nullptr && g->find("cancelled")->as_bool();
      b.stop_reason = str_or(g->find("stop_reason"), "none");
      b.guard_iterations = static_cast<long>(int_or(g->find("iterations"), 0));
      b.deadline_remaining_s = num_or(g->find("deadline_remaining_s"), kNaN);
      b.rss_kb = int_or(g->find("rss_kb"), 0);
    }
    if (const obs::Json* p = record.find("progress"); p != nullptr && p->is_object()) {
      b.has_progress = true;
      b.done = static_cast<long>(int_or(p->find("done"), 0));
      b.total = static_cast<long>(int_or(p->find("total"), 0));
      b.warm_adopted = static_cast<long>(int_or(p->find("warm_adopted"), 0));
    }
    if (const obs::Json* s = record.find("sim"); s != nullptr && s->is_object()) {
      b.has_sim = true;
      b.epoch = static_cast<long>(int_or(s->find("epoch"), 0));
      b.cycle = static_cast<long>(int_or(s->find("cycle"), 0));
      b.injected = static_cast<long>(int_or(s->find("injected"), 0));
      b.ejected = static_cast<long>(int_or(s->find("ejected"), 0));
    }
    if (const obs::Json* s = record.find("solver"); s != nullptr && s->is_object()) {
      b.has_solver = true;
      b.solver_iterations = static_cast<long>(int_or(s->find("iterations"), 0));
      b.objective = num_or(s->find("objective"), kNaN);
    }
    if (const obs::Json* c = record.find("counters"); c != nullptr && c->is_object()) {
      b.simplex_iters_delta = int_or(c->find("lp.simplex.iterations"), 0);
    }
    if (b.final_beat) finished = true;
    beats.push_back(std::move(b));
    return true;
  }
  // Unknown kinds are ignored: newer writers may add record types, and
  // older ones wrote "event" records.
  return true;
}

std::int64_t RunState::cumulative_iterations(std::size_t i) const {
  if (i >= beats.size()) return 0;
  // Prefer the guard token's cumulative tally; without a token it stays 0
  // and the obs counter deltas carry the information instead.
  if (beats[i].guard_iterations > 0) return beats[i].guard_iterations;
  std::int64_t sum = 0;
  for (std::size_t k = 0; k <= i; ++k) sum += beats[k].simplex_iters_delta;
  return sum;
}

double RunState::iterations_per_sec(int window) const {
  if (beats.size() < 2) return kNaN;
  const std::size_t last = beats.size() - 1;
  const std::size_t first =
      window > 0 && last > static_cast<std::size_t>(window) ? last - window : 0;
  const double dt = beats[last].uptime_s - beats[first].uptime_s;
  if (dt <= 0.0) return kNaN;
  const double di =
      static_cast<double>(cumulative_iterations(last) - cumulative_iterations(first));
  return di / dt;
}

double RunState::eta_seconds() const {
  const HeartbeatSample* b = last_beat();
  if (b == nullptr || !b->has_progress || b->done <= 0 || b->uptime_s <= 0.0) return kNaN;
  if (b->done >= b->total) return 0.0;
  const double rate = static_cast<double>(b->done) / b->uptime_s;
  return static_cast<double>(b->total - b->done) / rate;
}

double RunState::rss_slope_kb_per_s(int window) const {
  if (beats.size() < 2) return kNaN;
  const std::size_t last = beats.size() - 1;
  const std::size_t first =
      window > 0 && last > static_cast<std::size_t>(window) ? last - window : 0;
  const double dt = beats[last].uptime_s - beats[first].uptime_s;
  if (dt <= 0.0) return kNaN;
  return static_cast<double>(beats[last].rss_kb - beats[first].rss_kb) / dt;
}

std::vector<Anomaly> detect_anomalies(const RunState& state, const AnomalyOptions& opts) {
  std::vector<Anomaly> out;
  const std::size_t n = state.beats.size();

  // Iteration-rate collapse: the most recent interval's rate against the
  // mean rate of the trailing window before it.
  if (n >= static_cast<std::size_t>(opts.trailing_window) + 2) {
    const std::size_t last = n - 1;
    const double dt_recent = state.beats[last].uptime_s - state.beats[last - 1].uptime_s;
    const double dt_trail =
        state.beats[last - 1].uptime_s -
        state.beats[last - 1 - static_cast<std::size_t>(opts.trailing_window)].uptime_s;
    if (dt_recent > 0.0 && dt_trail > 0.0) {
      const double recent =
          static_cast<double>(state.cumulative_iterations(last) -
                              state.cumulative_iterations(last - 1)) /
          dt_recent;
      const double trail =
          static_cast<double>(
              state.cumulative_iterations(last - 1) -
              state.cumulative_iterations(last - 1 -
                                          static_cast<std::size_t>(opts.trailing_window))) /
          dt_trail;
      if (trail > 0.0 && recent < opts.collapse_ratio * trail) {
        out.push_back({"iteration_rate_collapse",
                       "iteration rate fell to " + fmt_rate(recent) + " (trailing " +
                           fmt_rate(trail) + ")"});
      }
    }
  }

  // RSS growth slope over the trailing window.
  const double slope = state.rss_slope_kb_per_s(opts.trailing_window);
  if (std::isfinite(slope) && slope > opts.rss_slope_warn_kb_per_s) {
    out.push_back({"rss_growth", "peak RSS growing at " +
                                     TextTable::num(slope / 1024.0, 1) + " MB/s"});
  }

  // Convergence stall: tcr::trace's criterion (relative objective
  // improvement below stall_tol while iterations advance) applied across
  // consecutive heartbeats of one solve. A solver-iteration decrease means
  // a new solve started — the streak resets.
  int streak = 0;
  long streak_iters = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const HeartbeatSample& prev = state.beats[i - 1];
    const HeartbeatSample& cur = state.beats[i];
    if (!prev.has_solver || !cur.has_solver ||
        cur.solver_iterations <= prev.solver_iterations ||
        !std::isfinite(prev.objective) || !std::isfinite(cur.objective)) {
      streak = 0;
      continue;
    }
    const double improvement = std::abs(cur.objective - prev.objective) /
                               std::max(1.0, std::abs(prev.objective));
    if (improvement < opts.stall_tol) {
      if (streak == 0) streak_iters = prev.solver_iterations;
      ++streak;
    } else {
      streak = 0;
    }
  }
  if (streak >= opts.stall_beats) {
    const HeartbeatSample& lastb = state.beats.back();
    out.push_back({"convergence_stall",
                   "objective flat for " + std::to_string(streak) + " beats (" +
                       std::to_string(lastb.solver_iterations - streak_iters) +
                       " iterations since " + std::to_string(streak_iters) + ")"});
  }
  return out;
}

std::string render_table(const RunState& state, const std::vector<Anomaly>& anomalies,
                         bool truncated_tail) {
  std::ostringstream os;
  const HeartbeatSample* b = state.last_beat();

  os << (state.bench.empty() ? std::string("(unknown bench)") : state.bench);
  if (state.pid != 0) os << "  pid " << state.pid;
  if (b != nullptr) os << "  uptime " << fmt_seconds(b->uptime_s);
  os << "  beats " << state.beats.size();
  if (state.finished) {
    os << "  [finished]";
  } else if (truncated_tail) {
    os << "  [stream truncated (crash?)]";
  } else {
    os << "  [live]";
  }
  os << "\n";

  TextTable table({"field", "value"});
  if (b == nullptr) {
    table.add_row({"state", "waiting for first heartbeat"});
  } else {
    table.add_row({"phase", b->phase.empty() ? "-" : b->phase});
    if (b->has_progress) {
      std::string prog = std::to_string(b->done) + "/" + std::to_string(b->total);
      if (b->total > 0) {
        prog += " (" +
                TextTable::num(100.0 * static_cast<double>(b->done) /
                                   static_cast<double>(b->total), 0) +
                "%)";
      }
      table.add_row({"points", prog});
      table.add_row({"warm-adopted", std::to_string(b->warm_adopted)});
      table.add_row({"ETA", state.finished ? "done" : fmt_seconds(state.eta_seconds())});
    }
    table.add_row({"iterations", std::to_string(state.cumulative_iterations(
                                     state.beats.size() - 1))});
    table.add_row({"iterations/sec", fmt_rate(state.iterations_per_sec())});
    if (b->has_sim) {
      table.add_row({"sim", "epoch " + std::to_string(b->epoch) + ", cycle " +
                                std::to_string(b->cycle) + ", flits " +
                                std::to_string(b->injected) + " in / " +
                                std::to_string(b->ejected) + " out"});
    }
    table.add_row({"RSS", fmt_rss(b->rss_kb)});
    if (std::isfinite(b->deadline_remaining_s)) {
      table.add_row({"deadline in", fmt_seconds(b->deadline_remaining_s)});
    }
    table.add_row({"cancelled", b->cancelled ? "yes (" + b->stop_reason + ")" : "no"});
  }
  table.print(os);

  for (const Anomaly& a : anomalies) {
    os << "  [warn] " << a.kind << ": " << a.message << "\n";
  }
  return os.str();
}

obs::Json state_json(const RunState& state, const std::vector<Anomaly>& anomalies,
                     bool truncated_tail) {
  obs::Json out = obs::Json::object();
  out.set("bench", state.bench);
  out.set("pid", static_cast<long>(state.pid));
  out.set("beats", static_cast<long>(state.beats.size()));
  out.set("finished", state.finished);
  out.set("truncated_tail", truncated_tail);

  const HeartbeatSample* b = state.last_beat();
  if (b != nullptr) {
    out.set("phase", b->phase);
    out.set("uptime_s", b->uptime_s);
    out.set("cancelled", b->cancelled);
    out.set("stop_reason", b->stop_reason);
    out.set("iterations", state.cumulative_iterations(state.beats.size() - 1));
    out.set("iterations_per_sec", state.iterations_per_sec());
    out.set("rss_kb", b->rss_kb);
    out.set("deadline_remaining_s", b->deadline_remaining_s);
    if (b->has_progress) {
      obs::Json p = obs::Json::object();
      p.set("done", b->done);
      p.set("total", b->total);
      p.set("warm_adopted", b->warm_adopted);
      p.set("eta_s", state.eta_seconds());
      out.set("progress", std::move(p));
    }
    if (b->has_sim) {
      obs::Json s = obs::Json::object();
      s.set("epoch", b->epoch);
      s.set("cycle", b->cycle);
      s.set("injected", b->injected);
      s.set("ejected", b->ejected);
      out.set("sim", std::move(s));
    }
  }

  obs::Json alist = obs::Json::array();
  for (const Anomaly& a : anomalies) {
    obs::Json one = obs::Json::object();
    one.set("kind", a.kind);
    one.set("message", a.message);
    alist.push_back(std::move(one));
  }
  out.set("anomalies", std::move(alist));
  return out;
}

}  // namespace tcr::telemetry
