#include "support/trace.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace jat {

// ---- TraceEvent -------------------------------------------------------------

const TraceValue* TraceEvent::find(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t TraceEvent::get_int(std::string_view key, std::int64_t fallback) const {
  const TraceValue* v = find(key);
  if (v == nullptr) return fallback;
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i;
  if (const auto* d = std::get_if<double>(v)) return static_cast<std::int64_t>(*d);
  if (const auto* b = std::get_if<bool>(v)) return *b ? 1 : 0;
  return fallback;
}

double TraceEvent::get_double(std::string_view key, double fallback) const {
  const TraceValue* v = find(key);
  if (v == nullptr) return fallback;
  if (const auto* d = std::get_if<double>(v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(v)) return static_cast<double>(*i);
  if (const auto* s = std::get_if<std::string>(v)) {
    if (*s == "inf") return std::numeric_limits<double>::infinity();
    if (*s == "-inf") return -std::numeric_limits<double>::infinity();
    if (*s == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  return fallback;
}

std::string TraceEvent::get_string(std::string_view key, std::string fallback) const {
  const TraceValue* v = find(key);
  if (v == nullptr) return fallback;
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return fallback;
}

bool TraceEvent::get_bool(std::string_view key, bool fallback) const {
  const TraceValue* v = find(key);
  if (v == nullptr) return fallback;
  if (const auto* b = std::get_if<bool>(v)) return *b;
  if (const auto* i = std::get_if<std::int64_t>(v)) return *i != 0;
  return fallback;
}

// ---- MetricsRegistry --------------------------------------------------------

void MetricsRegistry::add(std::string_view name, std::int64_t delta) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

std::int64_t MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::map<std::string, std::int64_t> MetricsRegistry::counters() const {
  std::lock_guard lock(mutex_);
  return {counters_.begin(), counters_.end()};
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  std::lock_guard lock(mutex_);
  return {gauges_.begin(), gauges_.end()};
}

std::string MetricsRegistry::to_string() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (value == 0) continue;
    if (!first) out << ' ';
    out << name << '=' << value;
    first = false;
  }
  for (const auto& [name, value] : gauges_) {
    if (!first) out << ' ';
    char buf[48];
    std::snprintf(buf, sizeof buf, "%g", value);
    out << name << '=' << buf;
    first = false;
  }
  return out.str();
}

// ---- JSON rendering ---------------------------------------------------------

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_value(std::string& out, const TraceValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&value)) {
    if (std::isnan(*d)) {
      out += "\"nan\"";
    } else if (std::isinf(*d)) {
      out += *d > 0 ? "\"inf\"" : "\"-inf\"";
    } else {
      append_double(out, *d);
    }
  } else if (const auto* s = std::get_if<std::string>(&value)) {
    append_json_string(out, *s);
  } else {
    out += std::get<bool>(value) ? "true" : "false";
  }
}

}  // namespace

std::string to_json(const TraceEvent& event) {
  std::string out = "{\"type\":";
  append_json_string(out, event.type);
  out += ",\"t_s\":";
  append_double(out, event.at.as_seconds());
  for (const auto& [key, value] : event.fields) {
    out += ',';
    append_json_string(out, key);
    out += ':';
    append_json_value(out, value);
  }
  out += '}';
  return out;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

// ---- TraceSink --------------------------------------------------------------

void TraceSink::emit(TraceEvent event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

std::size_t TraceSink::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceSink::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::vector<TraceEvent> TraceSink::events_of(std::string_view type) const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

void TraceSink::write_jsonl(std::ostream& out) const {
  for (const auto& e : events()) out << to_json(e) << '\n';
}

bool TraceSink::save_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return static_cast<bool>(out);
}

// ---- number codec -----------------------------------------------------------

void append_double(std::string& out, double value) {
  char buf[32];  // %.17g needs at most 24: "-1.2345678901234567e-308"
  const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

// Each decoder takes std::from_chars's answer only when it read the whole
// text and agrees with the C library by construction. Otherwise (a leading
// blank or '+', a hex float, an out-of-range value, a NaN payload, text
// after the number) the C function reads a NUL-terminated copy.

double decode_double(std::string_view text) {
  const char* end = text.data() + text.size();
  double value = 0.0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && stop == end && !std::isnan(value)) return value;
  return std::strtod(std::string(text).c_str(), nullptr);
}

std::int64_t decode_int(std::string_view text) {
  const char* end = text.data() + text.size();
  std::int64_t value = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && stop == end) return value;
  return std::strtoll(std::string(text).c_str(), nullptr, 10);
}

std::uint64_t decode_uint(std::string_view text, int base,
                          std::size_t* consumed) {
  // strtoull reads an optional 0x prefix in base 16; from_chars does not.
  std::string_view digits = text;
  if (base == 16 && digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
  }
  const char* end = digits.data() + digits.size();
  std::uint64_t value = 0;
  const auto [stop, ec] = std::from_chars(digits.data(), end, value, base);
  if (ec == std::errc() && stop == end) {
    if (consumed != nullptr) *consumed = text.size();
    return value;
  }
  const std::string copy(text);
  char* c_stop = nullptr;
  value = std::strtoull(copy.c_str(), &c_stop, base);
  if (consumed != nullptr) {
    *consumed = static_cast<std::size_t>(c_stop - copy.c_str());
  }
  return value;
}

// ---- JSONL parsing ----------------------------------------------------------

namespace {

/// Minimal reader for the flat JSON objects write_jsonl emits, over a view
/// of the line: keys and strings come back as views (copied only when they
/// carry escapes), numbers as int64 or double. `pos_` tracks the cursor;
/// errors carry the line for context.
class LineParser {
 public:
  LineParser(std::string_view line, std::size_t line_no, bool brace_implied)
      : line_(line), line_no_(line_no), brace_implied_(brace_implied) {}

  /// Calls visit(key, value) per field until the object closes.
  template <class Visit>
  void scan(Visit&& visit) {
    skip_ws();
    expect('{');
    skip_ws();
    if (closes()) return;
    for (;;) {
      skip_ws();
      const std::string_view key = parse_string(key_buf_);
      skip_ws();
      expect(':');
      skip_ws();
      const JsonFieldValue value = parse_value();
      if (key == "type" && !std::holds_alternative<std::string_view>(value)) {
        fail("type is not a string");
      }
      visit(key, value);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (!closes()) fail("expected '}'");
      return;
    }
  }

  TraceEvent parse() {
    TraceEvent event;
    scan([&event](std::string_view key, const JsonFieldValue& value) {
      if (key == "type") {
        event.type = std::get<std::string_view>(value);
      } else if (key == "t_s") {
        double seconds = 0.0;
        if (const auto* d = std::get_if<double>(&value)) {
          seconds = *d;
        } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
          seconds = static_cast<double>(*i);
        }
        event.at = SimTime::seconds(seconds);
      } else {
        event.fields.emplace_back(std::string(key), owned(value));
      }
    });
    return event;
  }

 private:
  static TraceValue owned(const JsonFieldValue& value) {
    if (const auto* text = std::get_if<std::string_view>(&value)) {
      return std::string(*text);
    }
    if (const auto* i = std::get_if<std::int64_t>(&value)) return *i;
    if (const auto* d = std::get_if<double>(&value)) return *d;
    return std::get<bool>(value);
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("trace JSONL line " + std::to_string(line_no_) + ": " + what);
  }

  char peek() const { return pos_ < line_.size() ? line_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  /// Consumes the object's closing brace, or accepts the end of the line
  /// in its place when the brace is implied.
  bool closes() {
    if (brace_implied_ && pos_ == line_.size()) return true;
    if (peek() != '}') return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t')) {
      ++pos_;
    }
  }

  /// End of the plain run at `from`: the next quote or backslash.
  std::size_t run_end(std::size_t from) const {
    const char* begin = line_.data() + from;
    const std::size_t left = line_.size() - from;
    const void* quote = std::memchr(begin, '"', left);
    const std::size_t scan =
        quote != nullptr ? static_cast<const char*>(quote) - begin : left;
    const void* slash = std::memchr(begin, '\\', scan);
    if (slash != nullptr) return from + (static_cast<const char*>(slash) - begin);
    if (quote == nullptr) fail("expected '\"'");
    return from + scan;
  }

  /// A string without escapes is returned as a view of the line; one with
  /// escapes is unescaped into `buf`, its plain runs appended whole.
  std::string_view parse_string(std::string& buf) {
    expect('"');
    const std::size_t start = pos_;
    std::size_t run = run_end(pos_);
    if (line_[run] == '"') {
      pos_ = run + 1;
      return line_.substr(start, run - start);
    }
    buf.clear();
    for (;;) {
      buf.append(line_.substr(pos_, run - pos_));
      pos_ = run;
      if (line_[pos_] == '"') break;
      ++pos_;  // the backslash
      if (pos_ >= line_.size()) fail("truncated escape");
      const char e = line_[pos_++];
      switch (e) {
        case '"': buf += '"'; break;
        case '\\': buf += '\\'; break;
        case '/': buf += '/'; break;
        case 'n': buf += '\n'; break;
        case 'r': buf += '\r'; break;
        case 't': buf += '\t'; break;
        case 'u': {
          if (pos_ + 4 > line_.size()) fail("truncated \\u escape");
          char hex[5] = {};
          line_.copy(hex, 4, pos_);
          const unsigned code =
              static_cast<unsigned>(std::strtoul(hex, nullptr, 16));
          pos_ += 4;
          // The writer only emits \u for control characters (< 0x20).
          buf += static_cast<char>(code & 0x7f);
          break;
        }
        default: fail("unknown escape");
      }
      run = run_end(pos_);
    }
    ++pos_;  // the closing quote
    return buf;
  }

  JsonFieldValue parse_value() {
    const char c = peek();
    if (c == '"') return parse_string(value_buf_);
    if (line_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (line_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
    // Number: integer unless it carries a fraction or exponent.
    const std::size_t start = pos_;
    bool floating = false;
    while (pos_ < line_.size()) {
      const char d = line_[pos_];
      if ((d >= '0' && d <= '9') || d == '-' || d == '+') {
        ++pos_;
      } else if (d == '.' || d == 'e' || d == 'E') {
        floating = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string_view token = line_.substr(start, pos_ - start);
    if (floating) return decode_double(token);
    return decode_int(token);
  }

  std::string_view line_;
  std::size_t line_no_;
  bool brace_implied_;
  std::size_t pos_ = 0;
  std::string key_buf_;
  std::string value_buf_;
};

}  // namespace

TraceEvent parse_trace_jsonl_line(std::string_view line, std::size_t line_no,
                                  bool brace_implied) {
  return LineParser(line, line_no, brace_implied).parse();
}

void scan_trace_jsonl_fields(std::string_view line, std::size_t line_no,
                             bool brace_implied,
                             const JsonFieldVisitor& visit) {
  LineParser(line, line_no, brace_implied).scan(visit);
}

std::vector<TraceEvent> TraceSink::load_jsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    events.push_back(parse_trace_jsonl_line(line, line_no));
  }
  return events;
}

std::vector<TraceEvent> TraceSink::load_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open trace file: " + path);
  return load_jsonl(in);
}

std::vector<TraceEvent> TraceSink::load_jsonl_lenient(std::istream& in,
                                                      std::string* warning) {
  // Collect lines first so "is this the final line?" is knowable; a partial
  // record can only be the writer's torn last append, anything earlier is
  // real corruption and still throws.
  std::vector<std::pair<std::string, std::size_t>> lines;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    lines.emplace_back(line, line_no);
  }
  std::vector<TraceEvent> events;
  events.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    try {
      events.push_back(parse_trace_jsonl_line(lines[i].first, lines[i].second));
    } catch (const Error& error) {
      if (i + 1 != lines.size()) throw;
      if (warning != nullptr) {
        *warning = "dropped truncated final record (line " +
                   std::to_string(lines[i].second) + "): " + error.what();
      }
    }
  }
  return events;
}

std::vector<TraceEvent> TraceSink::load_jsonl_file_lenient(
    const std::string& path, std::string* warning) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open trace file: " + path);
  return load_jsonl_lenient(in, warning);
}

}  // namespace jat
