#include "tcr/obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "tcr/util/check.hpp"

namespace tcr::obs {

namespace {

void dump_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void dump_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // strict JSON has no NaN/Inf
    return;
  }
  if (v == 0.0) {
    // "-0" would re-parse as the integer 0 and drop the sign; "-0.0" is
    // unambiguously a double and round-trips the sign bit.
    os << (std::signbit(v) ? "-0.0" : "0");
    return;
  }
  char buf[32];
  // max_digits10 (17) significant digits round-trip every double, including
  // denormals; prefer the shorter digits10 (15) rendering when it parses
  // back bit-exactly.
  std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::digits10, v);
  if (std::strtod(buf, nullptr) != v)
    std::snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10, v);
  os << buf;
}

}  // namespace

double Json::as_number(double fallback) const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ == Kind::Double) return double_;
  return fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  if (kind_ == Kind::Int) return int_;
  if (kind_ == Kind::Double) return static_cast<std::int64_t>(double_);
  return fallback;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  if (kind_ == Kind::Array) return array_.size();
  if (kind_ == Kind::Object) return object_.size();
  return 0;
}

bool Json::equals(const Json& other) const {
  if (kind_ != other.kind_) {
    // Ints and doubles compare by value so parse(dump(x)) == x even when a
    // double happens to hold an integral value.
    if (is_number() && other.is_number()) return as_number() == other.as_number();
    return false;
  }
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == other.bool_;
    case Kind::Int: return int_ == other.int_;
    case Kind::Double:
      return double_ == other.double_ || (std::isnan(double_) && std::isnan(other.double_));
    case Kind::String: return string_ == other.string_;
    case Kind::Array: {
      if (array_.size() != other.array_.size()) return false;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (!array_[i].equals(other.array_[i])) return false;
      }
      return true;
    }
    case Kind::Object: {
      if (object_.size() != other.object_.size()) return false;
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (object_[i].first != other.object_[i].first) return false;
        if (!object_[i].second.equals(other.object_[i].second)) return false;
      }
      return true;
    }
  }
  return false;
}

const std::string& Json::empty_string() {
  static const std::string kEmpty;
  return kEmpty;
}

Json& Json::set(std::string key, Json value) {
  TCR_REQUIRE(is_object(), "Json::set on a non-object");
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  TCR_REQUIRE(is_array(), "Json::push_back on a non-array");
  array_.push_back(std::move(value));
  return *this;
}

void Json::dump(std::ostream& os) const {
  switch (kind_) {
    case Kind::Null: os << "null"; break;
    case Kind::Bool: os << (bool_ ? "true" : "false"); break;
    case Kind::Int: os << int_; break;
    case Kind::Double: dump_double(os, double_); break;
    case Kind::String: dump_string(os, string_); break;
    case Kind::Array: {
      os << '[';
      bool first = true;
      for (const auto& v : array_) {
        if (!first) os << ',';
        first = false;
        v.dump(os);
      }
      os << ']';
      break;
    }
    case Kind::Object: {
      os << '{';
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) os << ',';
        first = false;
        dump_string(os, key);
        os << ':';
        v.dump(os);
      }
      os << '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

Json to_json(const Snapshot& snap) {
  Json counters = Json::object();
  for (const auto& [name, v] : snap.counters) counters.set(name, static_cast<long long>(v));
  Json gauges = Json::object();
  for (const auto& [name, v] : snap.gauges) gauges.set(name, v);
  Json timers = Json::object();
  for (const auto& [name, t] : snap.timers) {
    timers.set(name, Json::object()
                         .set("count", static_cast<long long>(t.count))
                         .set("wall_s", t.wall_seconds)
                         .set("cpu_s", t.cpu_seconds));
  }
  Json histograms = Json::object();
  for (const auto& [name, h] : snap.histograms) {
    histograms.set(name, Json::object()
                             .set("count", static_cast<long long>(h.count))
                             .set("sum", h.sum)
                             .set("min", h.min)
                             .set("max", h.max)
                             .set("p50", h.p50)
                             .set("p95", h.p95)
                             .set("p99", h.p99));
  }
  return Json::object()
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("timers", std::move(timers))
      .set("histograms", std::move(histograms));
}

Json snapshot_json() { return to_json(Registry::instance().snapshot()); }

EventSink::EventSink(std::ostream& os) : os_(&os) {}

EventSink::EventSink(const std::string& path)
    : file_(path, std::ios::out | std::ios::trunc), os_(&file_) {}

bool EventSink::ok() const {
  // The stream's state bits are mutated by write(); take the same mutex so a
  // health probe never races an in-flight record.
  std::lock_guard<std::mutex> lock(mu_);
  return os_ != nullptr && os_->good();
}

void EventSink::write(const Json& record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.dump(*os_);
  *os_ << '\n';
  os_->flush();
  records_.fetch_add(1, std::memory_order_relaxed);
}

// ---- parsing (the read half: what the writer above emits) ----------------

namespace {

// Recursive-descent parser over a string_view. Depth is bounded to keep
// malicious/corrupt inputs from overflowing the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Json* out, std::string* error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      if (error != nullptr) *error = error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = fail("trailing characters after JSON value");
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::string fail(const std::string& msg) {
    if (error_.empty()) {
      std::ostringstream os;
      os << msg << " at offset " << pos_;
      error_ = os.str();
    }
    return error_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null")) { fail("invalid literal"); return false; }
        *out = Json();
        return true;
      case 't':
        if (!literal("true")) { fail("invalid literal"); return false; }
        *out = Json(true);
        return true;
      case 'f':
        if (!literal("false")) { fail("invalid literal"); return false; }
        *out = Json(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = Json(std::move(s));
        return true;
      }
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string* out) {
    out->clear();
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) { fail("truncated \\u escape"); return false; }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else { fail("invalid \\u escape"); return false; }
            }
            append_utf8(out, code);
            break;
          }
          default: fail("invalid escape"); return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      out->push_back(c);
      ++pos_;
    }
    fail("unterminated string");
    return false;
  }

  // Surrogate pairs are not reassembled — the writer never emits them (it
  // escapes only control characters); lone code points cover our inputs.
  static void append_utf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool parse_number(Json* out) {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      *out = Json(std::strtod(token.c_str(), nullptr));
      return true;
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (errno == ERANGE) {
      // Out-of-int64 integers degrade to double rather than failing.
      *out = Json(std::strtod(token.c_str(), nullptr));
    } else {
      *out = Json(v);
    }
    return true;
  }

  bool parse_array(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::array();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json elem;
      skip_ws();
      if (!parse_value(&elem, depth + 1)) return false;
      out->push_back(std::move(elem));
      skip_ws();
      if (pos_ >= text_.size()) { fail("unterminated array"); return false; }
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; return true; }
      fail("expected ',' or ']' in array");
      return false;
    }
  }

  bool parse_object(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::object();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected string key in object");
        return false;
      }
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail("expected ':' after object key");
        return false;
      }
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(&value, depth + 1)) return false;
      out->set(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) { fail("unterminated object"); return false; }
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; return true; }
      fail("expected ',' or '}' in object");
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(std::string_view text, Json* out, std::string* error) {
  return Parser(text).parse(out, error);
}

namespace {

// Shared body of the strict and tail-tolerant JSON-lines readers. In
// tolerant mode a parse failure is deferred one iteration: it only becomes
// a hard error once a later non-blank line proves the bad record was not
// the file's torn tail.
bool parse_lines_impl(std::istream& in, std::vector<Json>* out, std::string* truncated,
                      std::string* error) {
  out->clear();
  if (truncated != nullptr) truncated->clear();
  std::string line;
  int lineno = 0;
  std::string pending_error;  // tolerant mode: failure awaiting a successor
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!pending_error.empty()) {
      if (error != nullptr) *error = pending_error;
      return false;
    }
    Json record;
    std::string err;
    if (!parse_json(line, &record, &err)) {
      const std::string described = "line " + std::to_string(lineno) + ": " + err;
      if (truncated == nullptr) {
        if (error != nullptr) *error = described;
        return false;
      }
      pending_error = described;
      continue;
    }
    out->push_back(std::move(record));
  }
  if (!pending_error.empty() && truncated != nullptr) {
    *truncated = "dropped torn final record (" + pending_error + ")";
  }
  return true;
}

}  // namespace

bool parse_json_lines(std::istream& in, std::vector<Json>* out, std::string* error) {
  return parse_lines_impl(in, out, nullptr, error);
}

bool parse_json_lines_tolerant(std::istream& in, std::vector<Json>* out,
                               std::string* truncated, std::string* error) {
  return parse_lines_impl(in, out, truncated, error);
}

bool parse_json_file(const std::string& path, Json* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string err;
  if (!parse_json(buf.str(), out, &err)) {
    if (error != nullptr) *error = path + ": " + err;
    return false;
  }
  return true;
}

}  // namespace tcr::obs
