#include "tcr/report/golden.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "tcr/obs/json.hpp"

namespace tcr::report {

namespace {

std::string get_string(const obs::Json& obj, const std::string& key) {
  const obs::Json* v = obj.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

double get_number(const obs::Json& obj, const std::string& key, double fallback) {
  const obs::Json* v = obj.find(key);
  return v != nullptr ? v->as_number(fallback) : fallback;
}

std::string format_value(double v) {
  if (std::isnan(v)) return "unsolved (NaN)";
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

}  // namespace

bool Quantity::applies_to(const std::string& preset) const {
  return std::find(presets.begin(), presets.end(), preset) != presets.end();
}

const TableSpec* GoldenFile::find_table(const std::string& name) const {
  for (const TableSpec& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

bool load_golden(const std::string& path, GoldenFile* out, std::string* error) {
  obs::Json root;
  if (!obs::parse_json_file(path, &root, error)) return false;
  if (!root.is_object()) {
    if (error != nullptr) *error = path + ": golden file is not a JSON object";
    return false;
  }
  out->schema_version = static_cast<int>(get_number(root, "schema_version", 0));
  if (out->schema_version != kSchemaVersion) {
    if (error != nullptr) {
      *error = path + ": unsupported golden schema_version " +
               std::to_string(out->schema_version);
    }
    return false;
  }

  out->tables.clear();
  if (const obs::Json* tables = root.find("tables"); tables != nullptr) {
    for (const obs::Json& t : tables->elements()) {
      TableSpec spec;
      spec.name = get_string(t, "name");
      spec.kind = get_string(t, "kind");
      spec.row_header = get_string(t, "row_header");
      if (const obs::Json* cols = t.find("columns"); cols != nullptr) {
        for (const obs::Json& c : cols->elements()) spec.columns.push_back(c.as_string());
      }
      if (spec.name.empty() || (spec.kind != "list" && spec.kind != "grid")) {
        if (error != nullptr) {
          *error = path + ": table '" + spec.name + "' needs a name and kind list|grid";
        }
        return false;
      }
      out->tables.push_back(std::move(spec));
    }
  }

  out->quantities.clear();
  const obs::Json* quantities = root.find("quantities");
  if (quantities == nullptr || !quantities->is_array()) {
    if (error != nullptr) *error = path + ": missing quantities array";
    return false;
  }
  std::set<std::string> seen_ids;
  for (const obs::Json& q : quantities->elements()) {
    Quantity quantity;
    quantity.id = get_string(q, "id");
    if (quantity.id.empty()) {
      if (error != nullptr) *error = path + ": quantity without an id";
      return false;
    }
    if (!seen_ids.insert(quantity.id).second) {
      if (error != nullptr) *error = path + ": duplicate quantity id '" + quantity.id + "'";
      return false;
    }
    if (const obs::Json* presets = q.find("presets"); presets != nullptr) {
      for (const obs::Json& p : presets->elements()) quantity.presets.push_back(p.as_string());
    }
    quantity.bench = get_string(q, "bench");
    if (const obs::Json* match = q.find("match"); match != nullptr) quantity.match = *match;
    quantity.field = get_string(q, "field");
    quantity.paper = get_number(q, "paper", quantity.paper);
    if (const obs::Json* measured = q.find("measured"); measured != nullptr) {
      quantity.has_measured = true;
      quantity.measured = measured->as_number();  // null -> NaN (recorded unsolved)
    }
    quantity.abs_tol = get_number(q, "abs_tol", 0.0);
    quantity.rel_tol = get_number(q, "rel_tol", 0.0);
    quantity.table = get_string(q, "table");
    quantity.row = get_string(q, "row");
    quantity.col = get_string(q, "col");
    quantity.binary = get_string(q, "binary");
    quantity.measured_note = get_string(q, "measured_note");
    quantity.measured_str = get_string(q, "measured_str");
    quantity.paper_str = get_string(q, "paper_str");
    quantity.fmt = static_cast<int>(get_number(q, "fmt", 4));
    if (const obs::Json* bold = q.find("bold"); bold != nullptr) quantity.bold = bold->as_bool();

    if (quantity.gated()) {
      if (quantity.bench.empty()) {
        if (error != nullptr) *error = path + ": gated quantity '" + quantity.id + "' lacks a bench";
        return false;
      }
      if (!quantity.has_measured) {
        if (error != nullptr) {
          *error = path + ": gated quantity '" + quantity.id + "' lacks a measured value";
        }
        return false;
      }
      if (quantity.abs_tol <= 0.0 && quantity.rel_tol <= 0.0 &&
          !std::isnan(quantity.measured)) {
        if (error != nullptr) {
          *error = path + ": gated quantity '" + quantity.id + "' has no tolerance";
        }
        return false;
      }
    }
    if (!quantity.table.empty() && out->find_table(quantity.table) == nullptr) {
      if (error != nullptr) {
        *error = path + ": quantity '" + quantity.id + "' references unknown table '" +
                 quantity.table + "'";
      }
      return false;
    }
    out->quantities.push_back(std::move(quantity));
  }
  return true;
}

Comparison compare_quantity(const Quantity& q, const std::vector<BenchRun>& runs) {
  Comparison cmp;
  cmp.id = q.id;
  cmp.bench = q.bench;
  cmp.paper = q.paper;
  cmp.golden = q.measured;
  cmp.tolerance = q.abs_tol + q.rel_tol * std::abs(q.measured);

  const BenchRun* run = nullptr;
  for (const BenchRun& r : runs) {
    if (r.bench == q.bench) {
      run = &r;
      break;
    }
  }
  if (run == nullptr) {
    cmp.outcome = Comparison::Outcome::Missing;
    cmp.reason = q.id + ": bench '" + q.bench + "' was not run";
    return cmp;
  }
  const BenchRecord* record = nullptr;
  for (const BenchRecord& rec : run->records) {
    if (point_matches(rec, q.match)) {
      record = &rec;
      break;
    }
  }
  if (record == nullptr) {
    cmp.outcome = Comparison::Outcome::Missing;
    cmp.reason = q.id + ": no record of bench '" + q.bench + "' matches " + q.match.dump();
    return cmp;
  }

  // A degraded point is a §5.3 interpolation and a skipped point was never
  // attempted (run control, tcr::guard) — neither is a measurement, so
  // neither may satisfy a gate even when its value lands inside tolerance.
  // Benches stamp `provenance` only on such points ("resumed" is normalized
  // away before records are written).
  if (const obs::Json* provenance = record->point.find("provenance");
      provenance != nullptr && provenance->is_string() &&
      provenance->as_string() != "measured") {
    cmp.actual = point_number(*record, q.field);
    cmp.outcome = Comparison::Outcome::Breach;
    cmp.reason = "GOLDEN BREACH " + q.id + ": matched record is " + provenance->as_string() +
                 ", not measured — interpolated (eq. 14) or unattempted under run control";
    return cmp;
  }

  cmp.actual = point_number(*record, q.field);
  const bool golden_solved = !std::isnan(q.measured);
  const bool actual_solved = !std::isnan(cmp.actual);
  if (!golden_solved && !actual_solved) {
    cmp.outcome = Comparison::Outcome::Pass;
    cmp.reason = q.id + ": unsolved, as recorded";
    return cmp;
  }
  if (golden_solved != actual_solved) {
    cmp.outcome = Comparison::Outcome::Breach;
    cmp.reason = "GOLDEN BREACH " + q.id + ": recorded " + format_value(q.measured) +
                 " but fresh run measured " + format_value(cmp.actual);
    return cmp;
  }
  cmp.delta = std::abs(cmp.actual - q.measured);
  if (cmp.delta <= cmp.tolerance) {
    cmp.outcome = Comparison::Outcome::Pass;
    std::ostringstream os;
    os.precision(3);
    os << q.id << ": delta " << cmp.delta << " within tolerance " << cmp.tolerance;
    cmp.reason = os.str();
  } else {
    cmp.outcome = Comparison::Outcome::Breach;
    std::ostringstream os;
    os.precision(10);
    os << "GOLDEN BREACH " << q.id << ": measured " << cmp.actual << ", recorded "
       << q.measured << ", delta " << cmp.delta << " > tolerance " << cmp.tolerance
       << " (paper: " << (q.paper_str.empty() ? format_value(q.paper) : q.paper_str) << ")";
    cmp.reason = os.str();
  }
  return cmp;
}

std::vector<Comparison> compare_preset(const GoldenFile& golden, const std::string& preset,
                                       const std::vector<BenchRun>& runs) {
  std::vector<Comparison> out;
  for (const Quantity& q : golden.quantities) {
    if (!q.gated() || !q.applies_to(preset)) continue;
    out.push_back(compare_quantity(q, runs));
  }
  return out;
}

}  // namespace tcr::report
