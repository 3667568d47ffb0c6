#include "tcr/trace/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace tcr::trace {

namespace {

std::int64_t us_to_ns(double us) {
  return static_cast<std::int64_t>(std::llround(us * 1000.0));
}

}  // namespace

bool load_trace(const obs::Json& doc, Trace* out, std::string* error) {
  *out = Trace{};
  if (!doc.is_object()) {
    if (error) *error = "trace document is not a JSON object";
    return false;
  }
  if (const obs::Json* other = doc.find("otherData")) {
    if (const obs::Json* dropped = other->find("dropped_events")) {
      out->dropped_events = dropped->as_int(0);
    }
  }
  const obs::Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    if (error) *error = "trace document has no traceEvents array";
    return false;
  }
  for (std::size_t idx = 0; idx < events->elements().size(); ++idx) {
    const obs::Json& e = events->elements()[idx];
    if (!e.is_object()) {
      if (error) *error = "traceEvents[" + std::to_string(idx) + "] is not an object";
      return false;
    }
    const obs::Json* ph = e.find("ph");
    const obs::Json* name = e.find("name");
    const obs::Json* ts = e.find("ts");
    if (ph == nullptr || name == nullptr || ts == nullptr) {
      if (error)
        *error = "traceEvents[" + std::to_string(idx) + "] lacks ph/name/ts";
      return false;
    }
    const obs::Json* args = e.find("args");
    const std::string& kind = ph->as_string();
    if (kind == "X") {
      SpanRec s;
      s.name = name->as_string();
      s.start_ns = us_to_ns(ts->as_number(0.0));
      if (const obs::Json* dur = e.find("dur")) s.dur_ns = us_to_ns(dur->as_number(0.0));
      if (const obs::Json* tid = e.find("tid"))
        s.tid = static_cast<std::uint32_t>(tid->as_int(0));
      if (args != nullptr && args->is_object()) {
        for (const auto& [key, value] : args->items()) {
          if (key == "span_id") {
            s.id = static_cast<std::uint64_t>(value.as_int(0));
          } else if (key == "parent") {
            s.parent = static_cast<std::uint64_t>(value.as_int(0));
          } else {
            s.args.set(key, value);
          }
        }
      }
      out->spans.push_back(std::move(s));
    } else if (kind == "C") {
      CounterRec c;
      c.name = name->as_string();
      c.t_ns = us_to_ns(ts->as_number(0.0));
      if (const obs::Json* tid = e.find("tid"))
        c.tid = static_cast<std::uint32_t>(tid->as_int(0));
      if (args != nullptr && args->is_object()) {
        if (const obs::Json* v = args->find("value")) c.value = v->as_number(0.0);
        if (const obs::Json* p = args->find("parent"))
          c.parent = static_cast<std::uint64_t>(p->as_int(0));
      }
      out->counters.push_back(std::move(c));
    }
    // Other phases (metadata, flow, ...) are tolerated and skipped.
  }
  return true;
}

bool load_trace_file(const std::string& path, Trace* out, std::string* error) {
  obs::Json doc;
  if (!obs::parse_json_file(path, &doc, error)) return false;
  return load_trace(doc, out, error);
}

std::map<std::string, NameAgg> aggregate(const Trace& trace) {
  std::unordered_map<std::uint64_t, std::int64_t> child_time;
  for (const SpanRec& s : trace.spans) {
    if (s.parent != 0) child_time[s.parent] += s.dur_ns;
  }
  std::map<std::string, NameAgg> out;
  for (const SpanRec& s : trace.spans) {
    NameAgg& agg = out[s.name];
    ++agg.count;
    agg.total_ns += s.dur_ns;
    const auto it = child_time.find(s.id);
    const std::int64_t children = it != child_time.end() ? it->second : 0;
    // A child may outlive its parent (handed to another thread); clamp so
    // self time never goes negative for one span.
    agg.self_ns += std::max<std::int64_t>(0, s.dur_ns - children);
    agg.max_ns = std::max(agg.max_ns, s.dur_ns);
  }
  return out;
}

std::vector<SpanRec> slowest_spans(const Trace& trace, std::size_t k) {
  std::vector<SpanRec> spans = trace.spans;
  std::sort(spans.begin(), spans.end(), [](const SpanRec& a, const SpanRec& b) {
    if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
    return a.id < b.id;
  });
  if (spans.size() > k) spans.resize(k);
  return spans;
}

std::vector<SolveReport> convergence_reports(const Trace& trace, double stall_tol) {
  // Resolve every span's nearest enclosing lp.solve span via parent links.
  std::unordered_map<std::uint64_t, const SpanRec*> by_id;
  for (const SpanRec& s : trace.spans) by_id[s.id] = &s;
  auto solve_ancestor = [&](std::uint64_t id) -> std::uint64_t {
    // Trace files are finite but guard against parent cycles from corrupt
    // input with a depth cap.
    for (int depth = 0; id != 0 && depth < 64; ++depth) {
      const auto it = by_id.find(id);
      if (it == by_id.end()) return 0;
      if (it->second->name == "lp.solve") return id;
      id = it->second->parent;
    }
    return 0;
  };

  std::vector<SolveReport> reports;
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (const SpanRec& s : trace.spans) {
    if (s.name != "lp.solve") continue;
    SolveReport r;
    r.span_id = s.id;
    r.dur_ns = s.dur_ns;
    // A design solve names its own crash start (SymmetricArcDesign::solve);
    // the solver under it saw an ordinary start basis.
    const obs::Json* w = s.args.find("warm_start");
    const auto p = by_id.find(s.parent);
    if (p != by_id.end() && p->second->name == "design.solve") {
      if (const obs::Json* dw = p->second->args.find("warm_start")) w = dw;
    }
    if (w != nullptr) r.warm_start = w->as_string();
    if (const obs::Json* st = s.args.find("status")) r.status = st->as_string();
    if (const obs::Json* it = s.args.find("iterations")) r.iterations = it->as_int(0);
    index_of[s.id] = reports.size();
    reports.push_back(std::move(r));
  }
  if (reports.empty()) return reports;

  for (const SpanRec& s : trace.spans) {
    if (s.name != "lp.refactor") continue;
    const std::uint64_t owner = solve_ancestor(s.parent);
    const auto it = index_of.find(owner);
    if (it != index_of.end()) ++reports[it->second].refactors;
  }

  // Walk the telemetry streams per solve. Samples arrive in trace order
  // (the ring preserves emission order), so consecutive lp.objective
  // samples of one solve delimit the stall windows.
  struct Stream {
    bool any = false;
    double prev_obj = 0.0;
    long prev_iter = 0;
    long stall_run_start = -1;  // iteration where the current stall began
    long cur_iter = 0;
  };
  std::unordered_map<std::uint64_t, Stream> streams;
  for (const CounterRec& c : trace.counters) {
    const std::uint64_t owner = solve_ancestor(c.parent);
    const auto idx = index_of.find(owner);
    if (idx == index_of.end()) continue;
    SolveReport& r = reports[idx->second];
    Stream& st = streams[owner];
    if (c.name == "lp.iteration") {
      st.cur_iter = static_cast<long>(c.value);
      r.iterations = std::max(r.iterations, st.cur_iter);
    } else if (c.name == "lp.objective") {
      ++r.samples;
      r.last_objective = c.value;
      if (!st.any) {
        st.any = true;
        r.first_objective = c.value;
      } else if (st.cur_iter > st.prev_iter) {
        // Duplicate samples of one iteration (cur_iter == prev_iter, e.g.
        // from corrupt or hand-built traces) are not stall evidence.
        const double improvement =
            std::abs(c.value - st.prev_obj) / std::max(1.0, std::abs(st.prev_obj));
        if (improvement < stall_tol) {
          ++r.stall_windows;
          if (st.stall_run_start < 0) st.stall_run_start = st.prev_iter;
          r.longest_stall_iters =
              std::max(r.longest_stall_iters, st.cur_iter - st.stall_run_start);
        } else {
          st.stall_run_start = -1;
        }
      }
      st.prev_obj = c.value;
      st.prev_iter = st.cur_iter;
    } else if (c.name == "lp.primal_infeas") {
      r.final_primal_infeas = c.value;
    } else if (c.name == "lp.dual_infeas") {
      r.final_dual_infeas = c.value;
    }
  }
  return reports;
}

std::vector<SpanRec> sweep_points(const Trace& trace) {
  std::vector<SpanRec> out;
  for (const SpanRec& s : trace.spans) {
    if (s.name == "sweep.point") out.push_back(s);
  }
  return out;
}

std::vector<DiffRow> diff(const Trace& a, const Trace& b) {
  const std::map<std::string, NameAgg> agg_a = aggregate(a);
  const std::map<std::string, NameAgg> agg_b = aggregate(b);
  std::vector<DiffRow> rows;
  for (const auto& [name, agg] : agg_a) {
    DiffRow row;
    row.name = name;
    row.a = agg;
    const auto it = agg_b.find(name);
    if (it != agg_b.end()) row.b = it->second;
    rows.push_back(std::move(row));
  }
  for (const auto& [name, agg] : agg_b) {
    if (agg_a.find(name) != agg_a.end()) continue;
    DiffRow row;
    row.name = name;
    row.b = agg;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const DiffRow& x, const DiffRow& y) {
    const std::int64_t tx = std::max(x.a ? x.a->total_ns : 0, x.b ? x.b->total_ns : 0);
    const std::int64_t ty = std::max(y.a ? y.a->total_ns : 0, y.b ? y.b->total_ns : 0);
    if (tx != ty) return tx > ty;
    return x.name < y.name;
  });
  return rows;
}

obs::Json flame_json(const Trace& trace) {
  const std::map<std::string, NameAgg> agg = aggregate(trace);
  std::vector<std::pair<std::string, NameAgg>> rows(agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns != b.second.self_ns ? a.second.self_ns > b.second.self_ns
                                                : a.first < b.first;
  });
  auto flame = obs::Json::array();
  for (const auto& [name, a] : rows) {
    auto row = obs::Json::object();
    row.set("span", name)
        .set("count", static_cast<std::int64_t>(a.count))
        .set("total_ns", a.total_ns)
        .set("self_ns", a.self_ns)
        .set("max_ns", a.max_ns)
        .set("avg_ns", a.count > 0 ? a.total_ns / a.count : 0);
    flame.push_back(std::move(row));
  }
  auto out = obs::Json::object();
  out.set("spans", static_cast<std::int64_t>(trace.spans.size()))
      .set("counters", static_cast<std::int64_t>(trace.counters.size()))
      .set("dropped", trace.dropped_events)
      .set("flame", std::move(flame));
  return out;
}

}  // namespace tcr::trace
