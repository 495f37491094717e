// Structured session tracing.
//
// A tuning session's ResultDb records *what* was measured; it says nothing
// about *why* — which phase proposed a candidate, when the incumbent moved,
// which measurements were answered from cache, what the resilience layer
// retried or quarantined. TraceSink is the observability layer the
// evaluation pipeline emits those decisions into: a lock-safe, append-only
// log of typed events with a JSONL export. Everything is a no-op when no
// sink is attached, so the tracing layer costs nothing when disabled
// (callers guard on a null pointer; no event is even built). Aggregates are
// computed from the events afterwards (harness/trace_analysis.hpp).
//
// The event schema is documented in EXPERIMENTS.md ("Trace event schema")
// and enforced by validate_trace_event() in harness/trace_analysis.hpp;
// tools/trace_report reconstructs convergence curves and per-phase budget
// attribution from a saved trace alone.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "support/sim_time.hpp"

namespace jat {

/// One typed field of a trace event. Doubles may be non-finite (crashed
/// objectives are +inf); the JSONL writer renders those as the strings
/// "inf"/"-inf"/"nan" and get_double() converts them back on load.
using TraceValue = std::variant<std::int64_t, double, std::string, bool>;

/// One event: a type tag, the budget position it was emitted at, and a
/// small ordered set of typed fields.
struct TraceEvent {
  std::string type;
  SimTime at;  ///< budget position (SimTime::zero() outside a budgeted path)
  std::vector<std::pair<std::string, TraceValue>> fields;

  TraceEvent() = default;
  explicit TraceEvent(std::string type_, SimTime at_ = SimTime::zero())
      : type(std::move(type_)), at(at_) {}

  /// Builder-style field append: TraceEvent("eval", t).with("ms", 12.0).
  TraceEvent&& with(std::string key, TraceValue value) && {
    fields.emplace_back(std::move(key), std::move(value));
    return std::move(*this);
  }

  /// Pointer to a field's value, or nullptr when absent.
  const TraceValue* find(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// Lenient typed getters: ints and doubles convert into each other, and
  /// the strings "inf"/"-inf"/"nan" read as doubles (see TraceValue).
  std::int64_t get_int(std::string_view key, std::int64_t fallback = 0) const;
  double get_double(std::string_view key, double fallback = 0.0) const;
  std::string get_string(std::string_view key, std::string fallback = "") const;
  bool get_bool(std::string_view key, bool fallback = false) const;
};

/// Lock-safe append-only event log. Sessions and evaluators hold a
/// TraceSink* that is null when tracing is disabled; every emit site guards
/// on the pointer, so a disabled trace costs one branch per event site.
class TraceSink {
 public:
  /// Appends an event (thread-safe). Event order is arrival order; under
  /// parallel evaluation, concurrent events interleave nondeterministically
  /// but each event's budget position is exact.
  void emit(TraceEvent event);

  std::size_t size() const;
  std::vector<TraceEvent> events() const;
  /// Events of one type, in arrival order.
  std::vector<TraceEvent> events_of(std::string_view type) const;

  /// One JSON object per line: {"type":...,"t_s":...,<fields...>}.
  void write_jsonl(std::ostream& out) const;
  bool save_jsonl(const std::string& path) const;

  /// Parses a stream/file written by write_jsonl (and only that dialect:
  /// flat objects of strings, numbers, and booleans), tolerant of a
  /// crashed writer: a malformed *final* line (a record torn mid-write) is
  /// dropped — with a diagnostic in `warning` when given — instead of
  /// failing the whole file. Corruption anywhere before the final line
  /// throws jat::Error.
  static std::vector<TraceEvent> load_jsonl_lenient(
      std::istream& in, std::string* warning = nullptr);
  static std::vector<TraceEvent> load_jsonl_file_lenient(
      const std::string& path, std::string* warning = nullptr);

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// Serialises one event as a single-line JSON object (no trailing newline).
std::string to_json(const TraceEvent& event);

/// Parses one write_jsonl line back into an event (the exact inverse of
/// to_json for the flat dialect). Throws jat::Error on malformed input;
/// `line_no` only labels the diagnostic. The session journal reuses this
/// for its own records; with `brace_implied` the end of `line` closes the
/// object, as in a journal record's body, whose closing brace follows the
/// checksum.
TraceEvent parse_trace_jsonl_line(std::string_view line,
                                  std::size_t line_no = 0,
                                  bool brace_implied = false);

/// One field value as the flat-JSON reader sees it, before any copy. A
/// string is a view into the line, or into the reader's own buffer when it
/// carried escapes; either way it is valid only during the visit.
using JsonFieldValue = std::variant<std::int64_t, double, std::string_view, bool>;
using JsonFieldVisitor =
    std::function<void(std::string_view key, const JsonFieldValue& value)>;

/// The reader under parse_trace_jsonl_line: calls `visit` once per field,
/// in line order, `type` and `t_s` included, and builds no event. A `type`
/// that is not a string is malformed. Throws jat::Error like the parser.
void scan_trace_jsonl_fields(std::string_view line, std::size_t line_no,
                             bool brace_implied, const JsonFieldVisitor& visit);

// ---- number codec -----------------------------------------------------------
//
// Every double the JSONL writers emit is rendered as printf's %.17g, the
// shortest decimal form that round-trips each bit, and read back with
// strtod's semantics. Both go through <charconv> (no locale, no format
// string, no NUL-terminated copy); the readers fall back to the C library
// wherever std::from_chars would read the text differently, so the decoded
// value is strtod's (or strtoll's, strtoull's) on every input.

/// Appends the %.17g rendering of `value`: the same bytes, inf and nan
/// included.
void append_double(std::string& out, double value);

/// std::strtod(text) as if `text` were NUL-terminated: the value of its
/// longest numeric prefix, 0 when there is none.
double decode_double(std::string_view text);

/// std::strtoll(text, nullptr, 10), likewise.
std::int64_t decode_int(std::string_view text);

/// std::strtoull(text, &end, base), likewise; `consumed`, when given,
/// receives end - text.
std::uint64_t decode_uint(std::string_view text, int base,
                          std::size_t* consumed = nullptr);

/// Canonical "0x%016x" rendering of configuration fingerprints in traces
/// (64-bit values do not survive a JSON number round-trip intact).
std::string fingerprint_hex(std::uint64_t fingerprint);

}  // namespace jat
