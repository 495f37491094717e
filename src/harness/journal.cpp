#include "harness/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "flags/configuration.hpp"
#include "flags/registry.hpp"
#include "support/log.hpp"
#include "support/process.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/trace.hpp"

namespace jat {

// Records are the trace JSONL dialect plus a trailing content checksum:
//   {...record fields...,"crc":"<16 hex digits>"}
// The checksum is fnv1a64 over the serialised record *without* the crc
// suffix, so any bit flip — even one that still parses as JSON — reads as
// corruption and truncates cleanly instead of replaying garbage. The
// encode/decode pair is public (journal.hpp): the result store persists
// its records through the same dialect.
namespace {
constexpr std::size_t kCrcSuffixLen = 8 /* ,"crc":" */ + 16 /* hex */ + 2 /* "} */;
}  // namespace

std::string journal_encode_record(const TraceEvent& event) {
  std::string body = to_json(event);
  char crc[32];
  std::snprintf(crc, sizeof crc, ",\"crc\":\"%016llx\"}",
                static_cast<unsigned long long>(fnv1a64(body)));
  body.pop_back();  // drop the closing '}'
  body += crc;
  return body;
}

namespace {

/// The record's body, everything before its checksum suffix, when the
/// checksum holds. The body's closing brace is implied: the checksum covers
/// the body plus '}', hashed in place instead of spliced into a copy.
std::optional<std::string_view> checked_body(std::string_view line) {
  if (line.size() <= kCrcSuffixLen) return std::nullopt;
  const std::string_view body = line.substr(0, line.size() - kCrcSuffixLen);
  const std::string_view suffix = line.substr(body.size());
  if (!suffix.starts_with(",\"crc\":\"") || !suffix.ends_with("\"}")) {
    return std::nullopt;
  }
  std::size_t consumed = 0;
  const std::uint64_t stored = decode_uint(suffix.substr(8, 16), 16, &consumed);
  if (consumed != 16) return std::nullopt;
  if (fnv1a64("}", fnv1a64(body)) != stored) return std::nullopt;
  return body;
}

}  // namespace

std::optional<TraceEvent> journal_decode_record(std::string_view line,
                                                std::size_t line_no) {
  const std::optional<std::string_view> body = checked_body(line);
  if (!body.has_value()) return std::nullopt;
  try {
    return parse_trace_jsonl_line(*body, line_no, /*brace_implied=*/true);
  } catch (const Error&) {
    return std::nullopt;
  }
}

bool journal_scan_record(std::string_view line, std::size_t line_no,
                         const JsonFieldVisitor& visit) {
  const std::optional<std::string_view> body = checked_body(line);
  if (!body.has_value()) return false;
  try {
    scan_trace_jsonl_fields(*body, line_no, /*brace_implied=*/true, visit);
  } catch (const Error&) {
    return false;
  }
  return true;
}

std::string journal_render_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

std::string journal_render_doubles(const std::vector<double>& values) {
  std::string out;
  for (double t : values) {
    if (!out.empty()) out += ' ';
    append_double(out, t);
  }
  return out;
}

std::vector<double> journal_parse_doubles(std::string_view text) {
  std::vector<double> out;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    double t = 0.0;
    const auto [stop, ec] = std::from_chars(p, end, t);
    if (ec != std::errc() || (stop != end && *stop != ' ') || std::isnan(t)) {
      // A token from_chars would read differently from strtod (see
      // decode_double): strtod reads the rest, exactly as it always has.
      const std::string rest(p, end);
      const char* q = rest.c_str();
      while (*q != '\0') {
        char* next = nullptr;
        t = std::strtod(q, &next);
        if (next == q) break;
        out.push_back(t);
        q = next;
        while (*q == ' ') ++q;
      }
      break;
    }
    out.push_back(t);
    p = stop;
    while (p != end && *p == ' ') ++p;
  }
  return out;
}

void journal_put_metrics(TraceEvent& event,
                         const std::vector<MetricVector>& rows) {
  if (rows.empty()) return;
  std::string text;
  for (const MetricVector& row : rows) {
    for (const double value : row.v) {
      if (!text.empty()) text += ' ';
      append_double(text, value);
    }
  }
  event.fields.emplace_back("metric_cols",
                            static_cast<std::int64_t>(kMetricCount));
  event.fields.emplace_back("metrics", std::move(text));
}

std::optional<std::vector<MetricVector>> journal_metric_rows(
    std::int64_t cols, const std::vector<double>& values, std::size_t reps) {
  const auto width = static_cast<std::size_t>(kMetricCount);
  if (cols != kMetricCount || values.size() != reps * width) {
    return std::nullopt;
  }
  std::vector<MetricVector> rows(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(r * width),
                width, rows[r].v.begin());
  }
  return rows;
}

bool journal_load_lines(int fd, bool read_only, const JournalLineKeeper& keep,
                        std::size_t& dropped) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return false;
  std::string data(static_cast<std::size_t>(std::max<off_t>(st.st_size, 0)),
                   '\0');
  std::size_t size = 0;
  while (size < data.size()) {
    const ssize_t n = ::pread(fd, data.data() + size, data.size() - size,
                              static_cast<off_t>(size));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) break;  // the file shrank since fstat
    size += static_cast<std::size_t>(n);
  }
  const std::string_view text(data.data(), size);

  std::size_t valid_end = 0;
  std::size_t line_no = 0;
  for (;;) {
    const std::size_t nl = text.find('\n', valid_end);
    if (nl == std::string_view::npos) break;  // torn final append
    const std::string_view line = text.substr(valid_end, nl - valid_end);
    if (!line.empty() && !keep(line, line_no + 1)) break;
    ++line_no;
    valid_end = nl + 1;
  }
  dropped = 0;
  for (std::size_t p = valid_end; p < text.size();) {
    const std::size_t end = std::min(text.find('\n', p), text.size());
    if (end > p) ++dropped;
    p = end + 1;
  }
  return read_only || valid_end == text.size() ||
         ::ftruncate(fd, static_cast<off_t>(valid_end)) == 0;
}

bool journal_append_line(int fd, std::string line) {
  line += '\n';
  std::size_t written = 0;
  if (write_all(fd, line.data(), line.size(), &written)) return true;
  const int error = errno;
  if (written > 0) {
    // After an O_APPEND write the offset sits at the end of what it wrote.
    const off_t end = ::lseek(fd, 0, SEEK_CUR);
    if (end >= static_cast<off_t>(written)) {
      [[maybe_unused]] const int rc =
          ::ftruncate(fd, end - static_cast<off_t>(written));
    }
  }
  errno = error;
  return false;
}

namespace {

constexpr auto* encode_record = &journal_encode_record;
constexpr auto* decode_record = &journal_decode_record;
constexpr auto* render_double = &journal_render_double;
constexpr auto* render_times = &journal_render_doubles;
constexpr auto* parse_times = &journal_parse_doubles;

std::string render_hex(std::uint64_t value) { return fingerprint_hex(value); }

std::uint64_t parse_hex(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 16);
}

// ---- session identity: the meta record's field table -----------------------
//
// for_each_meta_field() is the table: one entry per JournalMeta member, in
// record order, giving the record key, the member, its record form (put /
// get), the value a journal written before the field existed reads as, and
// whether resume validates it. meta_to_event(), meta_from_event() and
// validate_resume_meta() are loops over it, so a journaled option is added
// by adding one entry.

/// A record value as a mismatch error shows it (doubles as %.17g).
std::string show(const TraceValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&value)) return render_double(*d);
  if (const auto* b = std::get_if<bool>(&value)) return *b ? "true" : "false";
  return std::get<std::string>(value);
}

/// int and std::size_t members.
struct IntField {
  const char* name;
  std::int64_t absent = 0;
  bool validated = true;
  template <class T>
  TraceValue put(T value) const { return static_cast<std::int64_t>(value); }
  template <class T>
  void get(const TraceEvent& event, T& value) const {
    value = static_cast<T>(event.get_int(name, absent));
  }
};

struct TextField {
  const char* name;
  const char* absent = "";
  /// Not written at all while the value is `absent`.
  bool omit_absent = false;
  bool validated = true;
  TraceValue put(const std::string& value) const { return value; }
  void get(const TraceEvent& event, std::string& value) const {
    value = event.get_string(name, absent);
  }
};

bool omitted(const TextField& field, const std::string& value) {
  return field.omit_absent && value == field.absent;
}
template <class Field, class T>
bool omitted(const Field&, const T&) {
  return false;
}

struct RealField {
  const char* name;
  double absent = 0.0;
  bool validated = true;
  TraceValue put(double value) const { return value; }
  void get(const TraceEvent& event, double& value) const {
    value = event.get_double(name, absent);
  }
};

struct FlagField {
  const char* name;
  bool validated = true;
  TraceValue put(bool value) const { return value; }
  void get(const TraceEvent& event, bool& value) const {
    value = event.get_bool(name, false);
  }
};

/// A SimTime as integer microseconds.
struct MicrosField {
  const char* name;
  bool validated = true;
  TraceValue put(SimTime value) const { return value.as_micros(); }
  void get(const TraceEvent& event, SimTime& value) const {
    value = SimTime::micros(event.get_int(name));
  }
};

/// A 64-bit value as a string (it exceeds the int64 range): the seed in
/// decimal, fingerprints in 0x-prefixed hex.
struct U64Field {
  const char* name;
  int base = 10;
  bool validated = true;
  TraceValue put(std::uint64_t value) const {
    return base == 16 ? render_hex(value) : std::to_string(value);
  }
  void get(const TraceEvent& event, std::uint64_t& value) const {
    value = std::strtoull(event.get_string(name).c_str(), nullptr, base);
  }
};

/// Calls `visit(field, member...)` for every JournalMeta member in record
/// order, passing that member of each of `metas`.
template <class Visit, class... Meta>
void for_each_meta_field(Visit&& visit, Meta&... metas) {
  visit(IntField{"version", -1}, metas.version...);
  visit(TextField{"kind"}, metas.kind...);
  // run_time journals carry no objective field (nor the version bump that
  // goes with one): they stay byte-identical to version 1.
  visit(TextField{"objective", "run_time", /*omit_absent=*/true},
        metas.objective...);
  visit(TextField{"workload"}, metas.workload...);
  visit(TextField{"tuner"}, metas.tuner...);
  visit(U64Field{"seed"}, metas.seed...);
  visit(MicrosField{"budget_us"}, metas.budget...);
  visit(IntField{"repetitions"}, metas.repetitions...);
  visit(IntField{"inflight"}, metas.inflight...);
  // Parallelism changes wall clock, never the trajectory: not validated.
  visit(IntField{"eval_threads", 0, /*validated=*/false},
        metas.eval_threads...);
  visit(RealField{"per_run_overhead_s"}, metas.per_run_overhead_s...);
  visit(RealField{"racing_factor"}, metas.racing_factor...);
  // Journals from before the adaptive policy resume with it off.
  visit(FlagField{"adaptive"}, metas.adaptive...);
  visit(IntField{"min_reps", 2}, metas.min_reps...);
  visit(IntField{"max_reps", 10}, metas.max_reps...);
  visit(RealField{"ci_rel", 0.02}, metas.ci_rel...);
  visit(RealField{"race_p", 0.05}, metas.race_p...);
  visit(U64Field{"space_fingerprint", 16}, metas.space_fingerprint...);
  visit(FlagField{"resilient"}, metas.resilient...);
  visit(U64Field{"fault_fingerprint", 16}, metas.fault_fingerprint...);
}

TraceEvent meta_to_event(const JournalMeta& meta) {
  TraceEvent event("journal_meta");
  for_each_meta_field(
      [&](const auto& field, const auto& value) {
        if (!omitted(field, value)) {
          event.fields.emplace_back(field.name, field.put(value));
        }
      },
      meta);
  return event;
}

JournalMeta meta_from_event(const TraceEvent& event) {
  JournalMeta meta;
  for_each_meta_field(
      [&](const auto& field, auto& value) { field.get(event, value); }, meta);
  return meta;
}

TraceEvent eval_to_event(const JournalEval& eval) {
  TraceEvent event("journal_eval", eval.budget_spent);
  event.fields.emplace_back("seq", eval.seq);
  event.fields.emplace_back("fingerprint", render_hex(eval.fingerprint));
  event.fields.emplace_back("phase", eval.phase);
  event.fields.emplace_back("times_ms", render_times(eval.times_ms));
  // Metric rows ride along only under non-run_time objectives (see
  // make_journal_eval): run_time records keep the version-1 byte layout.
  journal_put_metrics(event, eval.rep_metrics);
  return std::move(event)
      .with("crashed", eval.crashed)
      .with("crash_reason", eval.crash_reason)
      .with("fault", std::string(to_string(eval.fault)))
      .with("attempts", static_cast<std::int64_t>(eval.attempts))
      .with("failed_reps", static_cast<std::int64_t>(eval.failed_reps))
      .with("stop", std::string(to_string(eval.stop)))
      .with("cost_us", eval.cost.as_micros())
      .with("spent_us", eval.budget_spent.as_micros())
      .with("command_line", eval.command_line);
}

JournalEval eval_from_event(const TraceEvent& event, std::size_t line_no,
                            std::vector<JournalWarning>* warnings) {
  const auto warn = [&](const char* field, std::string value,
                        std::string message) {
    log_warn() << "journal line " << line_no << ": " << message;
    if (warnings != nullptr) {
      warnings->push_back(JournalWarning{line_no, field, std::move(value),
                                         std::move(message)});
    }
  };
  JournalEval eval;
  eval.seq = event.get_int("seq", -1);
  eval.fingerprint = parse_hex(event.get_string("fingerprint"));
  eval.phase = event.get_string("phase");
  eval.times_ms = parse_times(event.get_string("times_ms"));
  eval.crashed = event.get_bool("crashed");
  eval.crash_reason = event.get_string("crash_reason");
  // Unknown labels (a newer writer's taxonomy) still read as clean/full so
  // the tolerant reader can proceed — but never silently: the warning is
  // surfaced in SessionJournal::warnings() and the log.
  bool known = true;
  const std::string fault_name = event.get_string("fault", "none");
  eval.fault = fault_class_from_string(fault_name, &known);
  if (!known) {
    warn("fault", fault_name,
         "unknown fault class '" + fault_name + "' read as 'none'");
  }
  eval.attempts = static_cast<int>(event.get_int("attempts", 1));
  eval.failed_reps = static_cast<int>(event.get_int("failed_reps"));
  const std::string stop_name = event.get_string("stop", "full");
  eval.stop = stop_reason_from_string(stop_name, &known);
  if (!known) {
    warn("stop", stop_name,
         "unknown stop reason '" + stop_name + "' read as 'full'");
  }
  // Metric rows (version >= 2 records under a non-run_time objective).
  const std::string metrics_text = event.get_string("metrics");
  if (!metrics_text.empty()) {
    const auto cols = event.get_int("metric_cols", kMetricCount);
    const std::vector<double> flat = parse_times(metrics_text);
    std::optional<std::vector<MetricVector>> rows =
        journal_metric_rows(cols, flat, eval.times_ms.size());
    if (rows.has_value()) {
      eval.rep_metrics = std::move(*rows);
    } else {
      warn("metrics", metrics_text,
           "uninterpretable metric block (cols=" + std::to_string(cols) +
               ", values=" + std::to_string(flat.size()) +
               ", reps=" + std::to_string(eval.times_ms.size()) +
               "); dropped");
    }
  }
  eval.cost = SimTime::micros(event.get_int("cost_us"));
  eval.budget_spent = SimTime::micros(event.get_int("spent_us"));
  eval.command_line = event.get_string("command_line");
  return eval;
}

}  // namespace

Measurement JournalEval::to_measurement() const {
  Measurement m;
  m.config_fingerprint = fingerprint;
  m.times_ms = times_ms;
  m.rep_metrics = rep_metrics;
  m.crashed = crashed;
  m.crash_reason = crash_reason;
  m.fault = fault;
  m.attempts = attempts;
  m.failed_reps = failed_reps;
  m.stop = stop;
  if (!m.times_ms.empty()) m.summary = summarize(m.times_ms);
  return m;
}

// ---- SessionJournal ---------------------------------------------------------

SessionJournal SessionJournal::create(const std::string& path,
                                      JournalOptions options) {
  SessionJournal journal;
  journal.path_ = path;
  journal.options_ = options;
  journal.fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_APPEND,
                       0644);
  if (journal.fd_ < 0) {
    throw JournalError("cannot create journal '" + path +
                       "': " + std::strerror(errno));
  }
  return journal;
}

SessionJournal SessionJournal::resume(const std::string& path,
                                      JournalOptions options) {
  SessionJournal journal;
  journal.path_ = path;
  journal.options_ = options;
  journal.fd_ = ::open(path.c_str(), O_RDWR | O_APPEND);
  if (journal.fd_ < 0) {
    throw JournalError("cannot open journal '" + path +
                       "': " + std::strerror(errno));
  }

  // Tolerant read: apply the longest valid prefix; the first corrupt or
  // partial record ends it, and the file is cut there.
  const auto keep = [&](std::string_view line, std::size_t line_no) {
    const std::optional<TraceEvent> event = decode_record(line, line_no);
    if (!event.has_value()) return false;
    if (event->type == "journal_meta") {
      if (journal.meta_.has_value()) {
        throw JournalError("journal '" + path +
                           "' holds more than one metadata record");
      }
      JournalMeta meta = meta_from_event(*event);
      // Every version up to the writer's own is readable: version 1 is the
      // metric-less run_time form, version 2 adds the objective field +
      // metric rows. validate_resume_meta still insists the *session*
      // agrees with the journaled version (both sides derive it from the
      // objective id, so a mismatch means a real conflict).
      if (meta.version < kVersion || meta.version > kVersionObjectives) {
        throw JournalError("version", std::to_string(meta.version),
                           std::to_string(kVersionObjectives));
      }
      journal.meta_ = std::move(meta);
    } else if (event->type == "journal_eval") {
      if (!journal.meta_.has_value()) {
        throw JournalError("journal '" + path +
                           "' has an eval record before its metadata");
      }
      JournalEval eval = eval_from_event(*event, line_no, &journal.warnings_);
      const auto expected =
          static_cast<std::int64_t>(journal.committed_.size());
      if (eval.seq != expected) {
        throw JournalError(
            "journal '" + path + "' line " + std::to_string(line_no) +
            ": duplicate or out-of-order record (expected seq " +
            std::to_string(expected) + ", found " + std::to_string(eval.seq) +
            ")");
      }
      journal.committed_.push_back(std::move(eval));
    } else if (event->type == "journal_end") {
      journal.ended_ = true;
    }
    // Unknown record types are skipped: a newer writer may add kinds this
    // reader does not know, and their checksums already validated.
    return true;
  };
  if (!journal_load_lines(journal.fd_, /*read_only=*/false, keep,
                          journal.dropped_)) {
    throw JournalError("cannot load journal '" + path +
                       "': " + std::strerror(errno));
  }
  if (journal.dropped_ > 0) {
    log_warn() << "journal " << path << ": dropped " << journal.dropped_
               << " corrupt/partial trailing record(s); keeping "
               << journal.committed_.size() << " committed evaluation(s)";
  }

  if (!journal.meta_.has_value()) {
    throw JournalError("journal '" + path +
                       "' holds no valid metadata record");
  }
  return journal;
}

SessionJournal::SessionJournal(SessionJournal&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      meta_(std::move(other.meta_)),
      committed_(std::move(other.committed_)),
      dropped_(other.dropped_),
      warnings_(std::move(other.warnings_)),
      appended_(other.appended_),
      ended_(other.ended_) {}

SessionJournal& SessionJournal::operator=(SessionJournal&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    options_ = other.options_;
    meta_ = std::move(other.meta_);
    committed_ = std::move(other.committed_);
    dropped_ = other.dropped_;
    warnings_ = std::move(other.warnings_);
    appended_ = other.appended_;
    ended_ = other.ended_;
  }
  return *this;
}

SessionJournal::~SessionJournal() { close(); }

void SessionJournal::close() noexcept {
  if (fd_ >= 0) {
    // Best effort: a destructor cannot report failure. What is durable is
    // what the last successful write_line()/flush() sync covered.
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void SessionJournal::sync_or_throw() {
  // No retry: after a failed fsync the kernel may already have dropped the
  // dirty pages, so a later success would not make these records durable.
  if (::fsync(fd_) != 0) {
    const int err = errno;
    throw JournalError("journal fsync of '" + path_ + "' failed: " +
                       std::strerror(err) + " (errno " + std::to_string(err) +
                       ")");
  }
}

const JournalMeta& SessionJournal::meta() const {
  if (!meta_.has_value()) {
    throw JournalError("journal '" + path_ + "' has no metadata record yet");
  }
  return *meta_;
}

void SessionJournal::write_line(std::string line, bool sync) {
  if (fd_ < 0) throw JournalError("journal '" + path_ + "' is closed");
  if (!journal_append_line(fd_, std::move(line))) {
    throw JournalError("journal write to '" + path_ +
                       "' failed: " + std::strerror(errno));
  }
  if (sync) sync_or_throw();
}

void SessionJournal::write_meta(const JournalMeta& meta) {
  std::lock_guard lock(mutex_);
  if (meta_.has_value()) {
    throw JournalError("journal '" + path_ +
                       "' already holds a session; resume it instead");
  }
  write_line(encode_record(meta_to_event(meta)), /*sync=*/true);
  meta_ = meta;
}

void SessionJournal::append(const JournalEval& eval) {
  std::lock_guard lock(mutex_);
  ++appended_;
  const bool batch_sync =
      options_.sync_every > 0 &&
      appended_ % static_cast<std::size_t>(options_.sync_every) == 0;
  const bool crash_now =
      options_.crash_after_appends > 0 &&
      appended_ == static_cast<std::size_t>(options_.crash_after_appends);
  // The crash hook syncs first: it simulates a power cut *after* the record
  // became durable, the case the WAL ordering exists for.
  write_line(encode_record(eval_to_event(eval)), batch_sync || crash_now);
  if (crash_now) std::raise(SIGKILL);
}

void SessionJournal::append_end(std::uint64_t best_fingerprint, double best_ms,
                                double default_ms, std::int64_t evaluations) {
  std::lock_guard lock(mutex_);
  TraceEvent event("journal_end");
  event.fields.emplace_back("best_fingerprint", render_hex(best_fingerprint));
  event.fields.emplace_back("best_ms", best_ms);
  event.fields.emplace_back("default_ms", default_ms);
  event.fields.emplace_back("evaluations", evaluations);
  write_line(encode_record(event), /*sync=*/true);
  ended_ = true;
}

void SessionJournal::flush() {
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) sync_or_throw();
}

// ---- helpers ----------------------------------------------------------------

std::uint64_t space_fingerprint(const FlagRegistry& registry) {
  return mix64(Configuration(registry).fingerprint(),
               static_cast<std::uint64_t>(registry.size()));
}

std::uint64_t fault_options_fingerprint(const FaultOptions& options) {
  if (!options.any()) return 0;
  std::uint64_t h = options.seed;
  const auto mix_double = [&h](double value) {
    h = mix64(h, std::bit_cast<std::uint64_t>(value));
  };
  const auto mix_time = [&h](SimTime value) {
    h = mix64(h, static_cast<std::uint64_t>(value.as_micros()));
  };
  mix_double(options.transient_rate);
  mix_time(options.failure_cost);
  mix_double(options.deterministic_rate);
  mix_double(options.hang_rate);
  mix_time(options.hang_timeout);
  mix_double(options.latency_spike_rate);
  mix_double(options.latency_spike_factor);
  mix_double(options.overcharge_rate);
  mix_time(options.overcharge);
  return h != 0 ? h : 1;
}

JournalEval make_journal_eval(std::int64_t seq, const Configuration& config,
                              std::uint64_t fingerprint,
                              const Measurement& measurement, SimTime cost,
                              SimTime budget_spent, const std::string& phase,
                              bool include_metrics) {
  JournalEval eval;
  eval.seq = seq;
  eval.fingerprint = fingerprint;
  eval.phase = phase;
  eval.command_line = config.render_command_line();
  eval.times_ms = measurement.times_ms;
  if (include_metrics) eval.rep_metrics = measurement.rep_metrics;
  eval.crashed = measurement.crashed;
  eval.crash_reason = measurement.crash_reason;
  eval.fault = measurement.fault;
  eval.attempts = measurement.attempts;
  eval.failed_reps = measurement.failed_reps;
  eval.stop = measurement.stop;
  eval.cost = cost;
  eval.budget_spent = budget_spent;
  return eval;
}

JournalEval make_journal_eval(std::int64_t seq, const Configuration& config,
                              const Measurement& measurement, SimTime cost,
                              SimTime budget_spent, const std::string& phase,
                              bool include_metrics) {
  return make_journal_eval(seq, config, config.fingerprint(), measurement,
                           cost, budget_spent, phase, include_metrics);
}

void validate_resume_meta(const JournalMeta& journaled,
                          const JournalMeta& session) {
  for_each_meta_field(
      [](const auto& field, const auto& in_journal, const auto& in_session) {
        const TraceValue a = field.put(in_journal);
        const TraceValue b = field.put(in_session);
        if (field.validated && a != b) {
          throw JournalError(field.name, show(a), show(b));
        }
      },
      journaled, session);
}

}  // namespace jat
