#include "tcr/perf/history.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace tcr::perf {

namespace {

std::string fmt_compact(double v) {
  std::ostringstream os;
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    os.precision(6);
    os << v;
  }
  return os.str();
}

/// Humanized value for the markdown report.
std::string fmt_quantity(const std::string& name, double v) {
  const auto num = [](double x, int prec) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(prec);
    os << x;
    return os.str();
  };
  if (name.find("_ns") != std::string::npos) {
    if (v >= 1e9) return num(v / 1e9, 2) + " s";
    if (v >= 1e6) return num(v / 1e6, 1) + " ms";
    if (v >= 1e3) return num(v / 1e3, 1) + " us";
    return num(v, 0) + " ns";
  }
  if (name.find("bytes") != std::string::npos) {
    if (v >= 1 << 20) return num(v / (1 << 20), 1) + " MiB";
    if (v >= 1 << 10) return num(v / (1 << 10), 1) + " KiB";
    return num(v, 0) + " B";
  }
  if (name.find("rss_kb") != std::string::npos) return num(v / 1024.0, 1) + " MiB";
  if (v >= 1e9) return num(v / 1e9, 2) + "G";
  if (v >= 1e6) return num(v / 1e6, 2) + "M";
  if (v >= 1e3) return num(v / 1e3, 1) + "k";
  return fmt_compact(v);
}

/// NUL-joined grouping key. Appends are two-step (no `a + b + c` chains):
/// GCC 12's -Wrestrict misfires on appending concatenated temporaries
/// (PR105651), same workaround as tools/tcr_repro.cpp.
std::string join_key(const std::string& a, const std::string& b) {
  std::string key = a;
  key += '\0';
  key += b;
  return key;
}

std::string join_key(const std::string& a, const std::string& b, const std::string& c) {
  std::string key = join_key(a, b);
  key += '\0';
  key += c;
  return key;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string provenance_field(const obs::Json& prov, const std::string& key) {
  const obs::Json* v = prov.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

/// Machine comparability for one quantity class. Empty fields (old entries,
/// unknown hosts) compare equal so hand-written fixtures stay gateable.
bool provenance_compatible(QuantityClass cls, const obs::Json& a, const obs::Json& b) {
  const std::string compiler_a = provenance_field(a, "compiler");
  const std::string compiler_b = provenance_field(b, "compiler");
  if (!compiler_a.empty() && !compiler_b.empty() && compiler_a != compiler_b) return false;
  if (cls == QuantityClass::Alloc) return true;  // counts survive a CPU swap
  const std::string cpu_a = provenance_field(a, "cpu");
  const std::string cpu_b = provenance_field(b, "cpu");
  return cpu_a.empty() || cpu_b.empty() || cpu_a == cpu_b;
}

obs::Json entry_to_json(const HistoryEntry& e) {
  auto q = obs::Json::object();
  for (const auto& [name, value] : e.quantities) q.set(name, value);
  auto j = obs::Json::object();
  j.set("schema_version", kHistorySchemaVersion)
      .set("kind", "perf_entry")
      .set("bench", e.bench)
      .set("config", e.config)
      .set("commit", e.commit)
      .set("source", e.source)
      .set("recorded_unix", e.recorded_unix)
      .set("provenance", e.provenance)
      .set("quantities", std::move(q));
  return j;
}

bool entry_from_json(const obs::Json& j, HistoryEntry* out, std::string* error) {
  const obs::Json* kind = j.find("kind");
  if (kind == nullptr || kind->as_string() != "perf_entry") {
    if (error != nullptr) *error = "record is not a kind:\"perf_entry\" object";
    return false;
  }
  const obs::Json* version = j.find("schema_version");
  if (version == nullptr || version->as_int() != kHistorySchemaVersion) {
    if (error != nullptr) *error = "unsupported history schema_version";
    return false;
  }
  const obs::Json* bench = j.find("bench");
  const obs::Json* quantities = j.find("quantities");
  if (bench == nullptr || !bench->is_string() || quantities == nullptr ||
      !quantities->is_object()) {
    if (error != nullptr) *error = "perf_entry lacks bench or quantities";
    return false;
  }
  out->bench = bench->as_string();
  if (const obs::Json* v = j.find("config")) out->config = v->as_string();
  if (const obs::Json* v = j.find("commit")) out->commit = v->as_string();
  if (const obs::Json* v = j.find("source")) out->source = v->as_string();
  if (const obs::Json* v = j.find("recorded_unix")) out->recorded_unix = v->as_int();
  if (const obs::Json* v = j.find("provenance")) out->provenance = *v;
  out->quantities.clear();
  for (const auto& [name, value] : quantities->items()) {
    if (value.is_number()) out->quantities[name] = value.as_number();
  }
  return true;
}

}  // namespace

std::string canonical_config(const obs::Json& params) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (const auto& [key, value] : params.items()) {
    kv.emplace_back(key, value.is_string() ? value.as_string() : value.dump());
  }
  std::sort(kv.begin(), kv.end());
  std::string out;
  for (const auto& [key, value] : kv) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

bool entries_from_google_benchmark(const obs::Json& doc, std::vector<HistoryEntry>* out,
                                   std::string* error) {
  const obs::Json* benchmarks = doc.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    if (error != nullptr) *error = "document has no benchmarks array (google-benchmark json?)";
    return false;
  }
  // name -> (real_ns minima, cpu_ns minima) across iteration runs.
  std::map<std::string, std::pair<double, double>> mins;
  std::vector<std::string> order;
  for (const obs::Json& b : benchmarks->elements()) {
    const obs::Json* run_type = b.find("run_type");
    if (run_type != nullptr && run_type->as_string() != "iteration") continue;
    const obs::Json* name = b.find("name");
    const obs::Json* real = b.find("real_time");
    const obs::Json* cpu = b.find("cpu_time");
    if (name == nullptr || real == nullptr) continue;
    double unit = 1.0;  // google-benchmark defaults to ns
    if (const obs::Json* u = b.find("time_unit")) {
      const std::string& s = u->as_string();
      unit = s == "s" ? 1e9 : s == "ms" ? 1e6 : s == "us" ? 1e3 : 1.0;
    }
    const double real_ns = real->as_number() * unit;
    const double cpu_ns = cpu != nullptr ? cpu->as_number() * unit : 0.0;
    auto [it, inserted] = mins.emplace(name->as_string(), std::make_pair(real_ns, cpu_ns));
    if (inserted) {
      order.push_back(it->first);
    } else {
      it->second.first = std::min(it->second.first, real_ns);
      it->second.second = std::min(it->second.second, cpu_ns);
    }
  }
  if (order.empty()) {
    if (error != nullptr) *error = "no iteration runs in the google-benchmark document";
    return false;
  }
  for (const std::string& name : order) {
    HistoryEntry e;
    e.bench = "micro_kernels";
    e.config = name;
    e.quantities["perf.real_ns"] = mins[name].first;
    if (mins[name].second > 0.0) e.quantities["perf.cpu_ns"] = mins[name].second;
    out->push_back(std::move(e));
  }
  return true;
}

bool load_history(const std::string& path, std::vector<HistoryEntry>* out, std::string* error,
                  bool allow_missing) {
  out->clear();
  std::ifstream in(path);
  if (!in) {
    if (allow_missing && !std::filesystem::exists(path)) return true;
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::vector<obs::Json> lines;
  std::string err;
  if (!obs::parse_json_lines(in, &lines, &err)) {
    if (error != nullptr) *error = path + ": " + err;
    return false;
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    HistoryEntry e;
    if (!entry_from_json(lines[i], &e, &err)) {
      if (error != nullptr) *error = path + ": line " + std::to_string(i + 1) + ": " + err;
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

bool append_history(const std::string& path, const std::vector<HistoryEntry>& entries,
                    std::string* error) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    if (error != nullptr) *error = "cannot open '" + path + "' for append";
    return false;
  }
  for (const HistoryEntry& e : entries) {
    entry_to_json(e).dump(out);
    out << '\n';
  }
  out.flush();
  if (!out.good()) {
    if (error != nullptr) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

std::vector<KeyStats> median_by_key(const std::vector<HistoryEntry>& entries) {
  // key string -> index into out, preserving first-appearance order.
  std::map<std::string, std::size_t> index;
  std::vector<KeyStats> out;
  std::vector<std::map<std::string, std::vector<double>>> values;
  for (const HistoryEntry& e : entries) {
    const std::string key = join_key(e.bench, e.config, e.commit);
    auto [it, inserted] = index.emplace(key, out.size());
    if (inserted) {
      KeyStats ks;
      ks.bench = e.bench;
      ks.config = e.config;
      ks.commit = e.commit;
      out.push_back(std::move(ks));
      values.emplace_back();
    }
    KeyStats& ks = out[it->second];
    ++ks.repeats;
    ks.provenance = e.provenance;
    for (const auto& [name, value] : e.quantities) values[it->second][name].push_back(value);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (auto& [name, vals] : values[i]) out[i].median[name] = median_of(std::move(vals));
  }
  return out;
}

QuantityClass classify_quantity(const std::string& name) {
  const auto contains = [&name](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  if (contains("alloc")) return QuantityClass::Alloc;
  if (contains("rss")) return QuantityClass::Rss;
  if (contains("wall") || contains("cpu") || contains("cycles") || contains("instructions") ||
      contains("real")) {
    return QuantityClass::Time;
  }
  return QuantityClass::Noisy;  // cache/branch misses, faults, ctx switches
}

double threshold_for(const GatePolicy& policy, const std::string& name) {
  const auto it = policy.per_quantity.find(name);
  if (it != policy.per_quantity.end()) return it->second;
  switch (classify_quantity(name)) {
    case QuantityClass::Time: return policy.time_ratio;
    case QuantityClass::Alloc: return policy.alloc_ratio;
    case QuantityClass::Rss: return policy.rss_ratio;
    case QuantityClass::Noisy: return policy.noisy_ratio;
  }
  return policy.noisy_ratio;
}

std::vector<GateFinding> gate(const std::vector<KeyStats>& baseline,
                              const std::vector<KeyStats>& candidate,
                              const GatePolicy& policy) {
  std::map<std::string, const KeyStats*> base_by_key;
  for (const KeyStats& b : baseline) base_by_key[join_key(b.bench, b.config)] = &b;

  std::vector<GateFinding> out;
  for (const KeyStats& cand : candidate) {
    const auto it = base_by_key.find(join_key(cand.bench, cand.config));
    if (it == base_by_key.end()) {
      GateFinding f;
      f.bench = cand.bench;
      f.config = cand.config;
      f.quantity = "*";
      f.verdict = GateFinding::Verdict::Missing;
      out.push_back(std::move(f));
      continue;
    }
    const KeyStats& base = *it->second;
    for (const auto& [name, cand_value] : cand.median) {
      GateFinding f;
      f.bench = cand.bench;
      f.config = cand.config;
      f.quantity = name;
      f.candidate = cand_value;
      f.threshold = threshold_for(policy, name);
      const auto base_it = base.median.find(name);
      if (base_it == base.median.end()) {
        f.verdict = GateFinding::Verdict::Missing;
        out.push_back(std::move(f));
        continue;
      }
      f.baseline = base_it->second;
      const QuantityClass cls = classify_quantity(name);
      if (!provenance_compatible(cls, base.provenance, cand.provenance)) {
        f.verdict = GateFinding::Verdict::SkippedMachine;
        out.push_back(std::move(f));
        continue;
      }
      const double floor =
          cls == QuantityClass::Time ? policy.time_floor_ns : policy.count_floor;
      if (f.baseline < floor) {
        f.verdict = GateFinding::Verdict::SkippedFloor;
        out.push_back(std::move(f));
        continue;
      }
      f.ratio = f.candidate / f.baseline;
      f.verdict = f.ratio > f.threshold ? GateFinding::Verdict::Regressed
                                        : GateFinding::Verdict::Pass;
      out.push_back(std::move(f));
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const GateFinding& a, const GateFinding& b) {
    const auto rank = [](const GateFinding& f) {
      return f.verdict == GateFinding::Verdict::Regressed ? 0 : 1;
    };
    return rank(a) < rank(b);
  });
  return out;
}

bool any_regression(const std::vector<GateFinding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const GateFinding& f) {
    return f.verdict == GateFinding::Verdict::Regressed;
  });
}

std::string markdown_report(const std::vector<HistoryEntry>& entries) {
  const std::vector<KeyStats> keys = median_by_key(entries);

  // Group keys by (bench, config) preserving order; within a group the
  // commits are already in history (trajectory) order.
  std::map<std::string, std::vector<const KeyStats*>> groups;
  std::vector<std::string> group_order;
  for (const KeyStats& ks : keys) {
    const std::string key = join_key(ks.bench, ks.config);
    auto [it, inserted] = groups.emplace(key, std::vector<const KeyStats*>{});
    if (inserted) group_order.push_back(key);
    it->second.push_back(&ks);
  }

  // The quantities column set per group: union over commits, stable order.
  std::ostringstream md;
  md << "# Perf trajectory\n";
  for (const std::string& key : group_order) {
    const std::vector<const KeyStats*>& commits = groups[key];
    std::vector<std::string> columns;
    for (const KeyStats* ks : commits) {
      for (const auto& [name, value] : ks->median) {
        (void)value;
        if (std::find(columns.begin(), columns.end(), name) == columns.end()) {
          columns.push_back(name);
        }
      }
    }
    md << "\n## " << commits.front()->bench;
    if (!commits.front()->config.empty()) md << " (" << commits.front()->config << ")";
    md << "\n\n|commit|repeats";
    for (const std::string& c : columns) {
      // Strip the uniform "perf." prefix for readability.
      md << '|' << (c.rfind("perf.", 0) == 0 ? c.substr(5) : c);
    }
    md << "|vs prev|\n|---|---";
    for (std::size_t i = 0; i < columns.size(); ++i) md << "|---";
    md << "|---|\n";
    const KeyStats* prev = nullptr;
    for (const KeyStats* ks : commits) {
      md << '|' << (ks->commit.empty() ? "-" : ks->commit) << '|' << ks->repeats;
      for (const std::string& c : columns) {
        const auto it = ks->median.find(c);
        md << '|' << (it != ks->median.end() ? fmt_quantity(c, it->second) : "-");
      }
      // Headline delta: cpu time (fall back to wall/real) vs previous commit.
      std::string delta = "-";
      for (const char* headline : {"perf.cpu_ns", "perf.wall_ns", "perf.real_ns"}) {
        const auto cur = ks->median.find(headline);
        if (cur == ks->median.end()) continue;
        if (prev != nullptr) {
          const auto was = prev->median.find(headline);
          if (was != prev->median.end() && was->second > 0.0) {
            std::ostringstream ds;
            ds.setf(std::ios::fixed);
            ds.precision(2);
            ds << cur->second / was->second << "x";
            delta = ds.str();
          }
        }
        break;
      }
      md << '|' << delta << "|\n";
      prev = ks;
    }
  }
  return md.str();
}

}  // namespace tcr::perf
