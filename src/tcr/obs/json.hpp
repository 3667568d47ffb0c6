// Minimal JSON value type, JSON-lines event sink, and the parser that reads
// both back, for machine-readable telemetry (the benches' --json output,
// BENCH_*.json trajectories, heartbeat payloads, trace files, golden values).
//
// Deliberately small: only what serialization needs. Object keys keep
// insertion order so records are stable and diffable; doubles render with
// round-trip precision; NaN/Inf render as null (strict JSON). The parser is
// strict JSON (RFC 8259) with one convention matching the writer: `null` in
// a numeric position reads back as NaN.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tcr/obs/registry.hpp"

namespace tcr::obs {

class Json {
 public:
  using Object = std::vector<std::pair<std::string, Json>>;
  using Array = std::vector<Json>;

  /// Value kind; doubles and ints are distinct so integer series values
  /// (radix k, sample counts) round-trip exactly through the report layer.
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() : kind_(Kind::Null) {}
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(int v) : kind_(Kind::Int), int_(v) {}
  Json(long v) : kind_(Kind::Int), int_(v) {}
  Json(long long v) : kind_(Kind::Int), int_(v) {}
  Json(double v) : kind_(Kind::Double), double_(v) {}
  Json(const char* s) : kind_(Kind::String), string_(s) {}
  Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  Json(Object o) : kind_(Kind::Object), object_(std::move(o)) {}
  Json(Array a) : kind_(Kind::Array), array_(std::move(a)) {}

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_string() const { return kind_ == Kind::String; }
  /// True for Int and Double values.
  bool is_number() const { return kind_ == Kind::Int || kind_ == Kind::Double; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  /// Append a key (objects only). Returns *this for chaining.
  Json& set(std::string key, Json value);
  /// Append an element (arrays only).
  Json& push_back(Json value);

  // --- read accessors (used by tcr::report to consume bench records) ---

  /// Bool value, or `fallback` for any other kind.
  bool as_bool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  /// Numeric value as double. Null and non-numbers yield `fallback`; the
  /// default NaN mirrors the writer, which renders NaN/Inf as JSON null.
  double as_number(double fallback = std::numeric_limits<double>::quiet_NaN()) const;
  /// Integer value (Double is truncated), or `fallback` for non-numbers.
  std::int64_t as_int(std::int64_t fallback = 0) const;
  /// String value, or `fallback` for any other kind.
  const std::string& as_string(const std::string& fallback = empty_string()) const {
    return is_string() ? string_ : fallback;
  }

  /// First value under `key` (objects only; nullptr when absent or when this
  /// is not an object). Lookup is linear — records are small by design.
  const Json* find(const std::string& key) const;
  /// Element count of an array/object; 0 for scalars.
  std::size_t size() const;
  /// Ordered key/value pairs (empty for non-objects).
  const Object& items() const { return object_; }
  /// Ordered elements (empty for non-arrays).
  const Array& elements() const { return array_; }

  /// Deep structural equality (key order matters — records are ordered).
  bool equals(const Json& other) const;

  void dump(std::ostream& os) const;
  std::string dump() const;

 private:
  static const std::string& empty_string();

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Serialize a registry snapshot with stable keys:
/// {"counters": {...}, "gauges": {...}, "timers": {name: {count, wall_s,
/// cpu_s}}, "histograms": {name: {count, sum, min, max, p50, p95, p99}}}.
Json to_json(const Snapshot& snap);

/// Snapshot of the process-wide registry, serialized.
Json snapshot_json();

/// JSON-lines sink: one record per line, flushed per write, safe to share
/// across threads. All members are thread-safe: write() serializes under a
/// mutex, ok() takes the same mutex (stream state bits are written by
/// write()), and records_written() is an atomic read — so a concurrent
/// reader never races a writer (tests/test_obs.cpp covers this under TSan).
class EventSink {
 public:
  /// Write to an externally-owned stream (not closed on destruction).
  explicit EventSink(std::ostream& os);
  /// Open (truncate) a file; check ok() before trusting writes.
  explicit EventSink(const std::string& path);

  bool ok() const;
  void write(const Json& record);
  std::int64_t records_written() const { return records_.load(std::memory_order_relaxed); }

 private:
  std::ofstream file_;
  std::ostream* os_;
  mutable std::mutex mu_;
  std::atomic<std::int64_t> records_{0};
};

/// Parse one JSON document. Returns false (and fills *error with a
/// position-annotated message) on malformed input; *out is then unspecified.
bool parse_json(std::string_view text, Json* out, std::string* error);

/// Parse a whole JSON-lines stream (one document per line, blank lines
/// skipped). On error, *error names the failing line number and offset.
bool parse_json_lines(std::istream& in, std::vector<Json>* out, std::string* error);

/// Like parse_json_lines, but tolerates a torn *final* line — the signature
/// of a writer killed mid-record (crash, SIGKILL, full disk). The torn line
/// is dropped and described in *truncated (line number + parse position);
/// *truncated stays empty for a clean stream. Malformed records anywhere
/// before the final line are still hard errors: mid-file corruption is not
/// truncation and must not be silently skipped.
bool parse_json_lines_tolerant(std::istream& in, std::vector<Json>* out,
                               std::string* truncated, std::string* error);

/// Read and parse a file holding a single JSON document.
bool parse_json_file(const std::string& path, Json* out, std::string* error);

}  // namespace tcr::obs
