#include "tcr/report/schema.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace tcr::report {

bool parse_run_file(const std::string& path, BenchRun* out, std::string* error,
                    const RunFileOptions& options) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::vector<obs::Json> lines;
  std::string err;
  out->truncation_note.clear();
  const bool parsed =
      options.tolerate_truncated_tail
          ? obs::parse_json_lines_tolerant(in, &lines, &out->truncation_note, &err)
          : obs::parse_json_lines(in, &lines, &err);
  if (!parsed) {
    if (error != nullptr) *error = path + ": " + err;
    return false;
  }
  if (lines.empty()) {
    if (error != nullptr) *error = path + ": empty run file";
    return false;
  }

  const obs::Json& head = lines.front();
  const obs::Json* kind = head.find("kind");
  if (kind == nullptr || kind->as_string() != "meta") {
    if (error != nullptr) *error = path + ": first record is not a kind:\"meta\" header";
    return false;
  }
  const obs::Json* version = head.find("schema_version");
  if (version == nullptr || !version->is_number()) {
    if (error != nullptr) *error = path + ": meta record lacks schema_version";
    return false;
  }
  out->schema_version = static_cast<int>(version->as_int());
  if (out->schema_version != kSchemaVersion) {
    if (error != nullptr) {
      *error = path + ": unsupported schema_version " + std::to_string(out->schema_version) +
               " (this reader supports " + std::to_string(kSchemaVersion) + ")";
    }
    return false;
  }
  const obs::Json* bench = head.find("bench");
  if (bench == nullptr || !bench->is_string()) {
    if (error != nullptr) *error = path + ": meta record lacks a bench id";
    return false;
  }
  out->bench = bench->as_string();
  const obs::Json* params = head.find("params");
  out->params = params != nullptr ? *params : obs::Json::object();
  const obs::Json* provenance = head.find("provenance");
  out->provenance = provenance != nullptr ? *provenance : obs::Json();

  out->records.clear();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const obs::Json& rec = lines[i];
    const obs::Json* rec_kind = rec.find("kind");
    if (rec_kind != nullptr && rec_kind->as_string() == "meta") {
      if (error != nullptr) {
        *error = path + ": record " + std::to_string(i + 1) + ": duplicate meta header";
      }
      return false;
    }
    const obs::Json* point = rec.find("point");
    if (point == nullptr || !point->is_object()) {
      if (error != nullptr) {
        *error = path + ": record " + std::to_string(i + 1) + ": missing point object";
      }
      return false;
    }
    const obs::Json* rec_bench = rec.find("bench");
    if (rec_bench != nullptr && rec_bench->as_string() != out->bench) {
      if (error != nullptr) {
        *error = path + ": record " + std::to_string(i + 1) + ": bench id '" +
                 rec_bench->as_string() + "' does not match header '" + out->bench + "'";
      }
      return false;
    }
    BenchRecord record;
    record.point = *point;
    const obs::Json* snapshot = rec.find("obs");
    if (snapshot != nullptr) record.obs = *snapshot;
    const obs::Json* perf = rec.find("perf");
    if (perf != nullptr) record.perf = *perf;
    out->records.push_back(std::move(record));
  }
  return true;
}

double point_number(const BenchRecord& rec, const std::string& field) {
  const obs::Json* v = rec.point.find(field);
  if (v == nullptr) return std::numeric_limits<double>::quiet_NaN();
  return v->as_number();
}

bool point_matches(const BenchRecord& rec, const obs::Json& match) {
  for (const auto& [key, want] : match.items()) {
    const obs::Json* have = rec.point.find(key);
    if (have == nullptr) return false;
    if (want.is_number() && have->is_number()) {
      if (want.as_number() != have->as_number()) return false;
    } else if (!have->equals(want)) {
      return false;
    }
  }
  return true;
}

CertificateTally tally_certificates(const std::vector<BenchRun>& runs) {
  CertificateTally tally;
  for (const BenchRun& run : runs) {
    for (const BenchRecord& rec : run.records) {
      for (const auto& [key, value] : rec.point.items()) {
        // Covers "certificate" and the multi-certificate benches'
        // "two_turn_certificate" / "optimal_certificate" fields.
        if (key.size() < 11 || key.substr(key.size() - 11) != "certificate") continue;
        if (!value.is_object()) continue;
        const obs::Json* checked = value.find("checked");
        if (checked == nullptr || !checked->as_bool()) continue;
        ++tally.checked;
        const obs::Json* pass = value.find("pass");
        if (pass == nullptr || !pass->as_bool()) ++tally.failed;
      }
    }
  }
  return tally;
}

bool entry_from_run(const BenchRun& run, perf::HistoryEntry* out, std::string* error) {
  out->bench = run.bench;
  out->config = perf::canonical_config(run.params);
  out->provenance = run.provenance;
  out->quantities.clear();
  out->source.clear();
  int blocks = 0;
  for (const BenchRecord& rec : run.records) {
    if (!rec.perf.is_object()) continue;
    ++blocks;
    for (const auto& [name, value] : rec.perf.items()) {
      if (name == "source") {
        const std::string& src = value.as_string();
        if (out->source.empty()) {
          out->source = src;
        } else if (out->source != src) {
          out->source = "mixed";
        }
        continue;
      }
      if (!value.is_number()) continue;
      const std::string key = "perf." + name;
      double& slot = out->quantities[key];
      // RSS is a process high-water mark: aggregate with max, not sum.
      const bool high_water = name.find("rss") != std::string::npos;
      slot = high_water ? std::max(slot, value.as_number()) : slot + value.as_number();
    }
  }
  if (blocks == 0) {
    if (error != nullptr) {
      *error = "run of bench '" + run.bench +
               "' carries no perf blocks (was it recorded with --perf?)";
    }
    return false;
  }
  return true;
}

}  // namespace tcr::report
